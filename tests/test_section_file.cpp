// The shared section-file codec's atomic save. The snapshot and autotune
// cache suites already attack decode byte by byte; these pin what a save
// failure leaves on disk: the format's own error type, no stray
// `<path>.tmp`, and an untouched target.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/section_file.hpp"
#include "serve/model_snapshot.hpp"
#include "sim/autotune_cache.hpp"

namespace loom::section_file {
namespace {

namespace fs = std::filesystem;

class TestFileError : public Error {
 public:
  explicit TestFileError(const std::string& what) : Error(what) {}
};

constexpr std::uint32_t kTestSections[] = {7};
constexpr Format kTestFormat{
    .label = "test file",
    .magic = "LOOMTEST",
    .version = 3,
    .sections = kTestSections,
    .max_string = 16,
    .raise = throw_as<TestFileError>,
};

std::vector<std::uint8_t> test_image() {
  return encode_sections(kTestFormat, [](std::uint32_t, ByteWriter& w) {
    w.str("payload");
  });
}

/// Each test works in a fresh, empty directory of its own.
class SectionFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           (std::string("loom_section_file_") +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(SectionFile, SaveIntoMissingDirectoryThrowsAndLeavesNoTmp) {
  const fs::path path = dir_ / "missing" / "out.bin";
  const std::vector<std::uint8_t> image = test_image();
  EXPECT_THROW(save_file(kTestFormat, path.string(), image), TestFileError);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(SectionFile, FormatsRaiseTheirOwnErrorTypeOnSave) {
  const fs::path missing = dir_ / "missing";
  EXPECT_THROW(sim::save_autotune_cache((missing / "tune.bin").string()),
               AutotuneCacheError);
  const nn::Network empty("empty", nn::Shape3{1, 1, 1});
  sim::WeightSet no_weights(empty, {});
  serve::Model model{.name = "empty",
                     .net = empty,
                     .profile = {},
                     .weights = std::move(no_weights),
                     .input_spec = {}};
  EXPECT_THROW(serve::save_snapshot(model, (missing / "snap.bin").string()),
               SnapshotError);
  EXPECT_FALSE(fs::exists(missing));
}

TEST_F(SectionFile, FailedRenameRemovesTmpAndLeavesTargetUntouched) {
  // The target is an existing non-empty directory: the tmp file is written
  // in full, then the rename over it fails.
  const fs::path target = dir_ / "target";
  fs::create_directories(target);
  const fs::path keep = target / "keep.txt";
  std::ofstream(keep) << "kept";

  const std::vector<std::uint8_t> image = test_image();
  EXPECT_THROW(save_file(kTestFormat, target.string(), image), TestFileError);
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  ASSERT_TRUE(fs::is_directory(target));
  std::string content;
  std::ifstream(keep) >> content;
  EXPECT_EQ(content, "kept");
  EXPECT_EQ(std::distance(fs::directory_iterator(target),
                          fs::directory_iterator()),
            1);
}

}  // namespace
}  // namespace loom::section_file
