#include "serve/model_snapshot.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/section_file.hpp"

namespace loom::serve {

namespace {

using section_file::ByteReader;
using section_file::ByteWriter;

// Section ids, in the exact order they must appear in the file.
enum SectionId : std::uint32_t {
  kName = 1,
  kNetwork = 2,
  kProfile = 3,
  kInputSpec = 4,
  kWeights = 5,
};
constexpr std::uint32_t kSectionOrder[] = {kName, kNetwork, kProfile,
                                           kInputSpec, kWeights};

constexpr section_file::Format kFormat{
    .label = "snapshot",
    .magic = "LOOMSNAP",
    .version = kSnapshotVersion,
    .sections = kSectionOrder,
    .max_string = 1u << 16,
    .raise = section_file::throw_as<SnapshotError>,
};

// Decode-side sanity bounds: generous for any real model, tight enough that
// a corrupted length field cannot drive a pathological allocation.
constexpr std::uint64_t kMaxLayers = 1u << 16;
constexpr std::uint64_t kMaxVector = 1u << 16;
constexpr std::uint64_t kMaxTensors = 1u << 16;
constexpr std::uint32_t kMaxRank = 8;

void put_shape3(ByteWriter& w, const nn::Shape3& s) {
  w.i64(s.c);
  w.i64(s.h);
  w.i64(s.w);
}

[[nodiscard]] nn::Shape3 get_shape3(ByteReader& r, const char* what) {
  nn::Shape3 s;
  s.c = r.i64(what);
  s.h = r.i64(what);
  s.w = r.i64(what);
  return s;
}

// ---- Section payloads ------------------------------------------------------

void encode_network(ByteWriter& w, const nn::Network& net) {
  w.str(net.name());
  put_shape3(w, net.input());
  put_shape3(w, net.current());
  w.u64(net.size());
  for (const nn::Layer& l : net.layers()) {
    w.u32(static_cast<std::uint32_t>(l.kind));
    w.str(l.name);
    put_shape3(w, l.in);
    put_shape3(w, l.out);
    w.i32(l.kernel_h);
    w.i32(l.kernel_w);
    w.i32(l.stride);
    w.i32(l.pad);
    w.i32(l.groups);
    w.u32(static_cast<std::uint32_t>(l.pool));
    w.i32(l.act_precision);
    w.i32(l.weight_precision);
    w.i32(l.precision_group);
  }
}

[[nodiscard]] nn::Network decode_network(ByteReader& r) {
  const std::string name = r.str("network name");
  const nn::Shape3 input = get_shape3(r, "network input");
  const nn::Shape3 current = get_shape3(r, "network current");
  const std::uint64_t count = r.count("layer count", kMaxLayers);
  nn::Network net(name, input);
  for (std::uint64_t i = 0; i < count; ++i) {
    nn::Layer l;
    l.kind = static_cast<nn::LayerKind>(
        r.i32_in("layer kind", 0, static_cast<int>(nn::LayerKind::kPool)));
    l.name = r.str("layer name");
    l.in = get_shape3(r, "layer in");
    l.out = get_shape3(r, "layer out");
    l.kernel_h = r.i32_in("kernel_h", 1, 1 << 14);
    l.kernel_w = r.i32_in("kernel_w", 1, 1 << 14);
    l.stride = r.i32_in("stride", 1, 1 << 14);
    l.pad = r.i32_in("pad", 0, 1 << 14);
    l.groups = r.i32_in("groups", 1, 1 << 14);
    l.pool = static_cast<nn::PoolKind>(
        r.i32_in("pool kind", 0, static_cast<int>(nn::PoolKind::kAvg)));
    l.act_precision = r.i32_in("act_precision", 1, kBasePrecision);
    l.weight_precision = r.i32_in("weight_precision", 1, kBasePrecision);
    l.precision_group = r.i32_in("precision_group", -1, 1 << 20);
    net.layers().push_back(std::move(l));
  }
  net.set_current(current);
  return net;
}

void encode_profile(ByteWriter& w, const quant::PrecisionProfile& p) {
  w.str(p.network);
  w.u32(static_cast<std::uint32_t>(p.target));
  w.u64(p.conv_act.size());
  for (const int v : p.conv_act) w.i32(v);
  w.i32(p.conv_weight);
  w.u64(p.fc_weight.size());
  for (const int v : p.fc_weight) w.i32(v);
  w.f64(p.dynamic_act_trim);
}

[[nodiscard]] quant::PrecisionProfile decode_profile(ByteReader& r) {
  quant::PrecisionProfile p;
  p.network = r.str("profile network");
  p.target = static_cast<quant::AccuracyTarget>(r.i32_in(
      "accuracy target", 0, static_cast<int>(quant::AccuracyTarget::k99)));
  const std::uint64_t na = r.count("conv_act count", kMaxVector);
  p.conv_act.reserve(static_cast<std::size_t>(na));
  for (std::uint64_t i = 0; i < na; ++i) {
    p.conv_act.push_back(r.i32_in("conv_act", 1, kBasePrecision));
  }
  p.conv_weight = r.i32_in("conv_weight", 1, kBasePrecision);
  const std::uint64_t nf = r.count("fc_weight count", kMaxVector);
  p.fc_weight.reserve(static_cast<std::size_t>(nf));
  for (std::uint64_t i = 0; i < nf; ++i) {
    p.fc_weight.push_back(r.i32_in("fc_weight", 1, kBasePrecision));
  }
  p.dynamic_act_trim = r.f64("dynamic_act_trim");
  return p;
}

void encode_input_spec(ByteWriter& w, const nn::SyntheticSpec& s) {
  w.i32(s.precision);
  w.f64(s.alpha);
  w.u8(s.is_signed ? 1 : 0);
  w.f64(s.zero_fraction);
}

[[nodiscard]] nn::SyntheticSpec decode_input_spec(ByteReader& r) {
  nn::SyntheticSpec s;
  s.precision = r.i32_in("spec precision", 1, kBasePrecision);
  s.alpha = r.f64("spec alpha");
  const std::uint8_t is_signed = r.u8("spec is_signed");
  if (is_signed > 1) {
    r.fail("spec is_signed out of range: " + std::to_string(is_signed));
  }
  s.is_signed = is_signed != 0;
  s.zero_fraction = r.f64("spec zero_fraction");
  if (!(s.alpha >= 1.0) || !(s.zero_fraction >= 0.0) ||
      !(s.zero_fraction <= 1.0)) {
    r.fail("input spec has out-of-range distribution");
  }
  return s;
}

void encode_weights(ByteWriter& w, std::span<const nn::Tensor> weights) {
  w.u64(weights.size());
  for (const nn::Tensor& t : weights) {
    const auto& dims = t.shape().dims();
    w.u32(static_cast<std::uint32_t>(dims.size()));
    for (const std::int64_t d : dims) w.i64(d);
    for (std::int64_t i = 0; i < t.elements(); ++i) {
      const auto v = static_cast<std::uint16_t>(t.flat(i));
      w.u8(static_cast<std::uint8_t>(v & 0xFF));
      w.u8(static_cast<std::uint8_t>(v >> 8));
    }
  }
}

[[nodiscard]] std::vector<nn::Tensor> decode_weights(ByteReader& r) {
  const std::uint64_t count = r.count("weight tensor count", kMaxTensors);
  std::vector<nn::Tensor> weights;
  weights.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t t = 0; t < count; ++t) {
    const std::uint32_t rank = r.u32("tensor rank");
    if (rank > kMaxRank) {
      r.fail("tensor rank out of range: " + std::to_string(rank));
    }
    std::vector<std::int64_t> dims;
    std::int64_t elements = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      const std::int64_t dim = r.i64("tensor dim");
      // Bound each dim so the product below cannot overflow, and the total
      // so a flipped length cannot drive a huge allocation past the
      // remaining-bytes check.
      if (dim < 0 || dim > (std::int64_t{1} << 32)) {
        r.fail("tensor dim out of range: " + std::to_string(dim));
      }
      dims.push_back(dim);
      elements *= dim;
      if (elements > (std::int64_t{1} << 33)) {
        r.fail("tensor element count out of range");
      }
    }
    r.need(static_cast<std::size_t>(elements) * 2, "tensor values");
    nn::Tensor tensor{nn::Shape(std::move(dims))};
    for (std::int64_t i = 0; i < elements; ++i) {
      const auto lo = static_cast<std::uint16_t>(r.u8("tensor value"));
      const auto hi = static_cast<std::uint16_t>(r.u8("tensor value"));
      tensor.set_flat(
          i, static_cast<Value>(static_cast<std::uint16_t>(lo | (hi << 8))));
    }
    weights.push_back(std::move(tensor));
  }
  return weights;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Model& model) {
  return section_file::encode_sections(
      kFormat, [&](std::uint32_t id, ByteWriter& w) {
        switch (id) {
          case kName: w.str(model.name); break;
          case kNetwork: encode_network(w, model.net); break;
          case kProfile: encode_profile(w, model.profile); break;
          case kInputSpec: encode_input_spec(w, model.input_spec); break;
          case kWeights: encode_weights(w, model.weights.tensors()); break;
        }
      });
}

Model decode_snapshot(std::span<const std::uint8_t> bytes) {
  std::string name;
  std::optional<nn::Network> net;
  quant::PrecisionProfile profile;
  nn::SyntheticSpec input_spec;
  std::vector<nn::Tensor> weights;
  section_file::decode_sections(
      kFormat, bytes, [&](std::uint32_t id, ByteReader& r) {
        switch (id) {
          case kName: name = r.str("model name"); break;
          case kNetwork: net.emplace(decode_network(r)); break;
          case kProfile: profile = decode_profile(r); break;
          case kInputSpec: input_spec = decode_input_spec(r); break;
          case kWeights: weights = decode_weights(r); break;
        }
      });

  // A well-formed but hostile file could otherwise hand the engine a layer
  // that reads past its producer's output, its own padded input or a short
  // weight tensor; the check runs before any plane is prepared.
  if (const std::string why = sim::weights_error(*net, weights); !why.empty()) {
    kFormat.fail(why);
  }
  sim::WeightSet set(*net, std::move(weights));
  return Model{std::move(name), std::move(*net), std::move(profile),
               std::move(set), input_spec};
}

void save_snapshot(const Model& model, const std::string& path) {
  section_file::save_file(kFormat, path, encode_snapshot(model));
}

std::shared_ptr<const Model> load_snapshot(const std::string& path,
                                           FaultInjector* injector) {
  std::vector<std::uint8_t> bytes = section_file::read_file(kFormat, path);
  if (injector != nullptr) {
    if (const auto bit = injector->corrupt_snapshot_bit(bytes.size() * 8)) {
      bytes[static_cast<std::size_t>(*bit / 8)] ^=
          static_cast<std::uint8_t>(1u << (*bit % 8));
    }
  }
  return std::make_shared<const Model>(decode_snapshot(bytes));
}

}  // namespace loom::serve
