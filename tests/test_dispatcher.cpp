#include <gtest/gtest.h>

#include <vector>

#include "arch/dispatcher.hpp"
#include "arch/sip.hpp"

namespace loom::arch {
namespace {

TEST(Dispatcher, ActivationStreamIsMsbFirst) {
  Dispatcher d(4);
  const std::vector<std::vector<Value>> cols = {{0b101, 0b010, 0, 0}};
  const ActivationStream s = d.stream_activations(cols, 3, /*dynamic=*/false);
  EXPECT_EQ(s.precision, 3);
  EXPECT_EQ(s.columns, 1);
  // Step 0 carries bit 2 (MSB): only value 0b101 has it -> lane 0.
  EXPECT_EQ(s.lanes(0, 0), 0b0001u);
  // Step 1 carries bit 1: only 0b010 -> lane 1.
  EXPECT_EQ(s.lanes(1, 0), 0b0010u);
  // Step 2 carries bit 0: only 0b101 -> lane 0.
  EXPECT_EQ(s.lanes(2, 0), 0b0001u);
}

TEST(Dispatcher, DynamicDetectionTrimsPlanes) {
  Dispatcher d(4);
  const std::vector<std::vector<Value>> cols = {{3, 1, 2, 0}};  // needs 2 bits
  const ActivationStream s = d.stream_activations(cols, 8, /*dynamic=*/true);
  EXPECT_EQ(s.precision, 2);
  EXPECT_EQ(d.detector().invocations(), 1u);
}

TEST(Dispatcher, DynamicDetectionClipsAtProfile) {
  Dispatcher d(4);
  const std::vector<std::vector<Value>> cols = {{255, 0, 0, 0}};  // 8 bits
  const ActivationStream s = d.stream_activations(cols, 6, /*dynamic=*/true);
  EXPECT_EQ(s.precision, 6);  // profile bound wins
}

TEST(Dispatcher, WeightStreamIsLsbFirst) {
  Dispatcher d(4);
  const std::vector<std::vector<Value>> rows = {{0b01, 0b10, 0, 0}};
  const WeightStream s = d.stream_weights(rows, 2);
  EXPECT_EQ(s.wr_word(0, 0), 0b0001u);  // bit 0: value 0b01 -> lane 0
  EXPECT_EQ(s.wr_word(1, 0), 0b0010u);  // bit 1: value 0b10 -> lane 1
}

TEST(Dispatcher, CountsStreamedBits) {
  Dispatcher d(16);
  const std::vector<std::vector<Value>> cols(2, std::vector<Value>(16, 1));
  (void)d.stream_activations(cols, 4, false);
  EXPECT_EQ(d.activation_bits_streamed(), 2u * 16 * 4);
  const std::vector<std::vector<Value>> rows(3, std::vector<Value>(16, 1));
  (void)d.stream_weights(rows, 5);
  EXPECT_EQ(d.weight_bits_streamed(), 3u * 16 * 5);
}

TEST(Dispatcher, StreamsDriveSipToExactProduct) {
  // Full path: dispatcher serialization -> SIP cycles == reference dot.
  Dispatcher d(8);
  const std::vector<Value> acts = {5, 0, 12, 7, 1, 3, 0, 9};
  const std::vector<Value> weights = {3, -2, 0, 7, -8, 1, 4, -1};
  const ActivationStream as = d.stream_activations({acts}, 4, true);
  const WeightStream ws = d.stream_weights({weights}, 5);

  Sip sip(SipConfig{.lanes = 8});
  sip.begin_output();
  for (int bit = 0; bit < ws.precision; ++bit) {
    sip.begin_weight_pass(ws.wr_word(bit, 0), bit, bit == ws.precision - 1);
    for (int step = 0; step < as.precision; ++step) {
      sip.cycle(as.lanes(step, 0), false);
    }
    sip.end_weight_pass();
  }
  Wide expect = 0;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    expect += Wide{acts[i]} * weights[i];
  }
  EXPECT_EQ(sip.output(), expect);
}

}  // namespace
}  // namespace loom::arch
