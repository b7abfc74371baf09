#include "serve/model_snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace loom::serve {

namespace {

// Section ids, in the exact order they must appear in the file.
enum SectionId : std::uint32_t {
  kName = 1,
  kNetwork = 2,
  kProfile = 3,
  kInputSpec = 4,
  kWeights = 5,
};
constexpr SectionId kSectionOrder[] = {kName, kNetwork, kProfile, kInputSpec,
                                       kWeights};
constexpr std::uint32_t kSectionCount = 5;

constexpr char kMagic[8] = {'L', 'O', 'O', 'M', 'S', 'N', 'A', 'P'};

// Decode-side sanity bounds: generous for any real model, tight enough that
// a corrupted length field cannot drive a pathological allocation.
constexpr std::uint64_t kMaxString = 1u << 16;
constexpr std::uint64_t kMaxLayers = 1u << 16;
constexpr std::uint64_t kMaxVector = 1u << 16;
constexpr std::uint64_t kMaxTensors = 1u << 16;
constexpr std::uint64_t kMaxRank = 8;

// ---- Little-endian encode into a growing byte buffer ----------------------

struct Writer {
  std::vector<std::uint8_t> out;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  }
  void u8(std::uint8_t v) { out.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    if (s.size() > kMaxString) {
      throw SnapshotError("string too long to snapshot: " +
                          std::to_string(s.size()) + " bytes");
    }
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void shape3(const nn::Shape3& s) {
    i64(s.c);
    i64(s.h);
    i64(s.w);
  }
};

// ---- Bounds-checked little-endian decode ----------------------------------

struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in.size() - pos;
  }
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      throw SnapshotError(std::string("snapshot truncated reading ") + what +
                          ": need " + std::to_string(n) + " bytes, have " +
                          std::to_string(remaining()));
    }
  }
  [[nodiscard]] std::uint8_t u8(const char* what) {
    need(1, what);
    return in[pos++];
  }
  [[nodiscard]] std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  [[nodiscard]] std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  [[nodiscard]] std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  [[nodiscard]] double f64(const char* what) {
    const std::uint64_t bits = u64(what);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str(const char* what) {
    const std::uint64_t n = u64(what);
    if (n > kMaxString) {
      throw SnapshotError(std::string("snapshot string length for ") + what +
                          " out of range: " + std::to_string(n));
    }
    need(static_cast<std::size_t>(n), what);
    std::string s(reinterpret_cast<const char*>(in.data() + pos),
                  static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return s;
  }
  [[nodiscard]] nn::Shape3 shape3(const char* what) {
    nn::Shape3 s;
    s.c = i64(what);
    s.h = i64(what);
    s.w = i64(what);
    return s;
  }
};

[[nodiscard]] int bounded_int(Reader& r, const char* what, int lo, int hi) {
  const std::int32_t v = r.i32(what);
  if (v < lo || v > hi) {
    throw SnapshotError(std::string("snapshot field ") + what +
                        " out of range: " + std::to_string(v));
  }
  return static_cast<int>(v);
}

// ---- Section payloads ------------------------------------------------------

void encode_network(Writer& w, const nn::Network& net) {
  w.str(net.name());
  w.shape3(net.input());
  w.shape3(net.current());
  w.u64(net.size());
  for (const nn::Layer& l : net.layers()) {
    w.u32(static_cast<std::uint32_t>(l.kind));
    w.str(l.name);
    w.shape3(l.in);
    w.shape3(l.out);
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

[[nodiscard]] nn::Network decode_network(Reader& r) {
  const std::string name = r.str("network name");
  const nn::Shape3 input = r.shape3("network input");
  const nn::Shape3 current = r.shape3("network current");
  const std::uint64_t count = r.u64("layer count");
  if (count > kMaxLayers) {
    throw SnapshotError("snapshot layer count out of range: " +
                        std::to_string(count));
  }
  nn::Network net(name, input);
  for (std::uint64_t i = 0; i < count; ++i) {
    nn::Layer l;
    const std::uint32_t kind = r.u32("layer kind");
    if (kind > static_cast<std::uint32_t>(nn::LayerKind::kPool)) {
      throw SnapshotError("snapshot layer kind out of range: " +
                          std::to_string(kind));
    }
    l.kind = static_cast<nn::LayerKind>(kind);
    l.name = r.str("layer name");
    l.in = r.shape3("layer in");
    l.out = r.shape3("layer out");
    l.kernel_h = bounded_int(r, "kernel_h", 1, 1 << 14);
    l.kernel_w = bounded_int(r, "kernel_w", 1, 1 << 14);
    l.stride = bounded_int(r, "stride", 1, 1 << 14);
    l.pad = bounded_int(r, "pad", 0, 1 << 14);
    l.groups = bounded_int(r, "groups", 1, 1 << 14);
    const std::uint32_t pool = r.u32("pool kind");
    if (pool > static_cast<std::uint32_t>(nn::PoolKind::kAvg)) {
      throw SnapshotError("snapshot pool kind out of range: " +
                          std::to_string(pool));
    }
    l.pool = static_cast<nn::PoolKind>(pool);
    l.act_precision = bounded_int(r, "act_precision", 1, kBasePrecision);
    l.weight_precision = bounded_int(r, "weight_precision", 1, kBasePrecision);
    l.precision_group = bounded_int(r, "precision_group", -1, 1 << 20);
    if (l.in.c < 0 || l.in.h < 0 || l.in.w < 0 || l.out.c < 0 || l.out.h < 0 ||
        l.out.w < 0 || (l.in.c % l.groups) != 0 ||
        (l.kind == nn::LayerKind::kConv && (l.out.c % l.groups) != 0)) {
      throw SnapshotError("snapshot layer '" + l.name +
                          "' has inconsistent geometry");
    }
    net.layers().push_back(std::move(l));
  }
  // A well-formed but hostile file could otherwise hand the engine a layer
  // that reads past its producer's output.
  if (const std::size_t i = net.first_chain_break(); i < net.size()) {
    throw SnapshotError("snapshot layer '" + net.layer(i).name +
                        "' does not consume its producer's output");
  }
  net.set_current(current);
  return net;
}

void encode_profile(Writer& w, const quant::PrecisionProfile& p) {
  w.str(p.network);
  w.u32(static_cast<std::uint32_t>(p.target));
  w.u64(p.conv_act.size());
  for (const int v : p.conv_act) w.i32(v);
  w.i32(p.conv_weight);
  w.u64(p.fc_weight.size());
  for (const int v : p.fc_weight) w.i32(v);
  w.f64(p.dynamic_act_trim);
}

[[nodiscard]] quant::PrecisionProfile decode_profile(Reader& r) {
  quant::PrecisionProfile p;
  p.network = r.str("profile network");
  const std::uint32_t target = r.u32("profile target");
  if (target > static_cast<std::uint32_t>(quant::AccuracyTarget::k99)) {
    throw SnapshotError("snapshot accuracy target out of range: " +
                        std::to_string(target));
  }
  p.target = static_cast<quant::AccuracyTarget>(target);
  const std::uint64_t na = r.u64("conv_act count");
  if (na > kMaxVector) {
    throw SnapshotError("snapshot conv_act count out of range: " +
                        std::to_string(na));
  }
  p.conv_act.reserve(static_cast<std::size_t>(na));
  for (std::uint64_t i = 0; i < na; ++i) {
    p.conv_act.push_back(bounded_int(r, "conv_act", 1, kBasePrecision));
  }
  p.conv_weight = bounded_int(r, "conv_weight", 1, kBasePrecision);
  const std::uint64_t nf = r.u64("fc_weight count");
  if (nf > kMaxVector) {
    throw SnapshotError("snapshot fc_weight count out of range: " +
                        std::to_string(nf));
  }
  p.fc_weight.reserve(static_cast<std::size_t>(nf));
  for (std::uint64_t i = 0; i < nf; ++i) {
    p.fc_weight.push_back(bounded_int(r, "fc_weight", 1, kBasePrecision));
  }
  p.dynamic_act_trim = r.f64("dynamic_act_trim");
  return p;
}

void encode_input_spec(Writer& w, const nn::SyntheticSpec& s) {
  w.i32(s.precision);
  w.f64(s.alpha);
  w.u8(s.is_signed ? 1 : 0);
  w.f64(s.zero_fraction);
}

[[nodiscard]] nn::SyntheticSpec decode_input_spec(Reader& r) {
  nn::SyntheticSpec s;
  s.precision = bounded_int(r, "spec precision", 1, kBasePrecision);
  s.alpha = r.f64("spec alpha");
  const std::uint8_t is_signed = r.u8("spec is_signed");
  if (is_signed > 1) {
    throw SnapshotError("snapshot spec is_signed out of range: " +
                        std::to_string(is_signed));
  }
  s.is_signed = is_signed != 0;
  s.zero_fraction = r.f64("spec zero_fraction");
  if (!(s.alpha >= 1.0) || !(s.zero_fraction >= 0.0) ||
      !(s.zero_fraction <= 1.0)) {
    throw SnapshotError("snapshot input spec has out-of-range distribution");
  }
  return s;
}

void encode_weights(Writer& w, const std::vector<nn::Tensor>& weights) {
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

[[nodiscard]] std::vector<nn::Tensor> decode_weights(Reader& r) {
  const std::uint64_t count = r.u64("weight tensor count");
  if (count > kMaxTensors) {
    throw SnapshotError("snapshot weight tensor count out of range: " +
                        std::to_string(count));
  }
  std::vector<nn::Tensor> weights;
  weights.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t t = 0; t < count; ++t) {
    const std::uint32_t rank = r.u32("tensor rank");
    if (rank > kMaxRank) {
      throw SnapshotError("snapshot tensor rank out of range: " +
                          std::to_string(rank));
    }
    std::vector<std::int64_t> dims;
    std::int64_t elements = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      const std::int64_t dim = r.i64("tensor dim");
      // Bound each dim so the product below cannot overflow, and the total
      // so a flipped length cannot drive a huge allocation past the
      // remaining-bytes check.
      if (dim < 0 || dim > (std::int64_t{1} << 32)) {
        throw SnapshotError("snapshot tensor dim out of range: " +
                            std::to_string(dim));
      }
      dims.push_back(dim);
      elements *= dim;
      if (elements > (std::int64_t{1} << 33)) {
        throw SnapshotError("snapshot tensor element count out of range");
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

[[nodiscard]] std::size_t weighted_layer_count(const nn::Network& net) {
  std::size_t n = 0;
  for (const auto& l : net.layers()) {
    if (l.has_weights()) ++n;
  }
  return n;
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  return loom::fnv1a64(bytes);  // shared primitive, common/bitops.hpp
}

std::uint64_t fnv1a64(const std::string& s) noexcept {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::vector<std::uint8_t> encode_snapshot(const Model& model) {
  Writer header;
  header.bytes(kMagic, sizeof kMagic);
  header.u32(kSnapshotVersion);
  header.u32(kSectionCount);

  for (const SectionId id : kSectionOrder) {
    Writer payload;
    switch (id) {
      case kName: payload.str(model.name); break;
      case kNetwork: encode_network(payload, model.net); break;
      case kProfile: encode_profile(payload, model.profile); break;
      case kInputSpec: encode_input_spec(payload, model.input_spec); break;
      case kWeights: encode_weights(payload, model.weights); break;
    }
    header.u32(id);
    header.u64(payload.out.size());
    header.u64(fnv1a64(payload.out));
    header.bytes(payload.out.data(), payload.out.size());
  }
  return std::move(header.out);
}

Model decode_snapshot(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  r.need(sizeof kMagic, "magic");
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw SnapshotError("snapshot magic mismatch: not a LOOMSNAP file");
  }
  r.pos = sizeof kMagic;
  const std::uint32_t version = r.u32("version");
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot version skew: file has version " +
                        std::to_string(version) + ", this build reads " +
                        std::to_string(kSnapshotVersion));
  }
  const std::uint32_t sections = r.u32("section count");
  if (sections != kSectionCount) {
    throw SnapshotError("snapshot section count mismatch: " +
                        std::to_string(sections) + " != " +
                        std::to_string(kSectionCount));
  }

  std::string name;
  std::optional<nn::Network> net;
  quant::PrecisionProfile profile;
  nn::SyntheticSpec input_spec;
  std::vector<nn::Tensor> weights;
  for (const SectionId expected : kSectionOrder) {
    const std::uint32_t id = r.u32("section id");
    if (id != expected) {
      throw SnapshotError("snapshot section order violation: got id " +
                          std::to_string(id) + ", expected " +
                          std::to_string(expected));
    }
    const std::uint64_t length = r.u64("section length");
    const std::uint64_t checksum = r.u64("section checksum");
    // Checked AFTER the checksum field is consumed: remaining() must cover
    // the payload itself, or the subspan below would read past the buffer.
    if (length > r.remaining()) {
      throw SnapshotError("snapshot section " + std::to_string(id) +
                          " length " + std::to_string(length) +
                          " overruns the file (" +
                          std::to_string(r.remaining()) + " bytes left)");
    }
    const std::span<const std::uint8_t> payload =
        bytes.subspan(r.pos, static_cast<std::size_t>(length));
    if (fnv1a64(payload) != checksum) {
      throw SnapshotError("snapshot section " + std::to_string(id) +
                          " checksum mismatch (corrupted payload)");
    }
    Reader section{payload};
    switch (expected) {
      case kName: name = section.str("model name"); break;
      case kNetwork: net.emplace(decode_network(section)); break;
      case kProfile: profile = decode_profile(section); break;
      case kInputSpec: input_spec = decode_input_spec(section); break;
      case kWeights: weights = decode_weights(section); break;
    }
    if (section.pos != payload.size()) {
      throw SnapshotError("snapshot section " + std::to_string(expected) +
                          " has " +
                          std::to_string(payload.size() - section.pos) +
                          " trailing bytes");
    }
    r.pos += static_cast<std::size_t>(length);
  }
  if (r.pos != bytes.size()) {
    throw SnapshotError("snapshot has " + std::to_string(bytes.size() - r.pos) +
                        " trailing bytes after the last section");
  }

  if (weights.size() != weighted_layer_count(*net)) {
    throw SnapshotError(
        "snapshot weight/layer mismatch: " + std::to_string(weights.size()) +
        " weight tensors for " +
        std::to_string(weighted_layer_count(*net)) + " weighted layers");
  }
  std::size_t wi = 0;
  for (const auto& l : net->layers()) {
    if (!l.has_weights()) continue;
    if (weights[wi].elements() != l.weight_count()) {
      throw SnapshotError("snapshot weight tensor " + std::to_string(wi) +
                          " has " + std::to_string(weights[wi].elements()) +
                          " values, layer '" + l.name + "' needs " +
                          std::to_string(l.weight_count()));
    }
    ++wi;
  }
  return Model{std::move(name), std::move(*net), std::move(profile),
               std::move(weights), input_spec};
}

void save_snapshot(const Model& model, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(model);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw SnapshotError("cannot open '" + tmp + "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw SnapshotError("short write saving snapshot to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

std::shared_ptr<const Model> load_snapshot(const std::string& path,
                                           FaultInjector* injector) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapshotError("cannot open snapshot '" + path + "'");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    bytes.insert(bytes.end(), buf, buf + n);
    if (n < sizeof buf) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw SnapshotError("short read loading snapshot '" + path + "'");
  }

  if (injector != nullptr) {
    if (const auto bit = injector->corrupt_snapshot_bit(bytes.size() * 8)) {
      bytes[static_cast<std::size_t>(*bit / 8)] ^=
          static_cast<std::uint8_t>(1u << (*bit % 8));
    }
  }
  return std::make_shared<const Model>(decode_snapshot(bytes));
}

}  // namespace loom::serve
