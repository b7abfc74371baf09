// End-to-end functional inference: a small CNN executed entirely through
// the bit-serial datapath — dispatcher, SIP grid, cascading requantization
// and pooling — with the outputs checked against the bit-parallel golden
// pipeline and the dynamic-precision savings reported per layer.
//
//   ./functional_pipeline
#include <iostream>

#include "core/loom.hpp"
#include "sim/functional.hpp"

using namespace loom;

int main() {
  // A LeNet-ish digit classifier, profiled by hand.
  nn::Network net("digitnet", nn::Shape3{1, 28, 28});
  net.add_conv("conv1", 8, 5, 1, 2).precision_group = 0;
  net.add_pool("pool1", nn::PoolKind::kMax, 2, 2);
  net.add_conv("conv2", 16, 5, 1, 2).precision_group = 1;
  net.add_pool("pool2", nn::PoolKind::kMax, 2, 2);
  net.add_fc("fc1", 64);
  net.add_fc("logits", 10);
  quant::PrecisionProfile profile;
  profile.network = "digitnet";
  profile.conv_act = {8, 7};
  profile.conv_weight = 8;
  profile.fc_weight = {8, 7};
  quant::apply_profile(net, profile);

  // Synthetic input image + weights.
  nn::SyntheticSpec img{.precision = 8, .alpha = 3.0, .is_signed = false};
  const nn::Tensor input = nn::make_activation_tensor(net.input(), img, 11, 0);
  std::vector<nn::Tensor> weights;
  std::uint64_t stream = 1;
  for (const auto& l : net.layers()) {
    if (!l.has_weights()) continue;
    nn::SyntheticSpec w{.precision = l.weight_precision, .alpha = 8.0,
                        .is_signed = true};
    weights.push_back(nn::make_weight_tensor(l.weight_count(), w, 12, stream++));
  }

  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.rows = 16, .cols = 16});
  const auto run =
      engine.run_network(net, input, sim::WeightSet(net, weights));

  TextTable t("digitnet through the bit-serial datapath");
  t.set_header({"Layer", "Cycles", "Streamed Pa (mean)", "Profile Pa",
                "Requant shift", "Out bits"});
  for (const auto& lr : run.layers) {
    // Look the profile precision up from the network by name.
    int profile_pa = 16;
    for (const auto& l : net.layers()) {
      if (l.name == lr.name) profile_pa = l.act_precision;
    }
    t.add_row({lr.name, std::to_string(lr.cycles),
               TextTable::num(lr.mean_streamed_precision, 1),
               std::to_string(profile_pa), std::to_string(lr.requant_shift),
               std::to_string(lr.out_bits)});
  }
  std::cout << t.render() << '\n';

  // Cross-check the final logits against the golden pipeline using the
  // same requantization decisions.
  nn::Tensor x = input;
  std::size_t wi = 0, ri = 0;
  bool exact = true;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& l = net.layer(i);
    if (l.kind == nn::LayerKind::kPool) {
      x = nn::pool_forward(x, l);
      continue;
    }
    const nn::WideTensor wide =
        l.kind == nn::LayerKind::kConv
            ? nn::conv_forward(x, weights[wi], l)
            : nn::fc_forward(x, weights[wi], l);
    ++wi;
    const auto& lr = run.layers[ri++];
    x = nn::requantize(wide, lr.requant_shift, lr.out_bits, true);
  }
  for (std::int64_t i = 0; i < x.elements(); ++i) {
    exact = exact && x.flat(i) == run.output.flat(i);
  }

  std::cout << "Total datapath cycles: " << run.total_cycles << '\n'
            << "Logits match the bit-parallel golden pipeline: "
            << (exact ? "EXACT" : "MISMATCH") << '\n'
            << "Detector invocations: "
            << engine.dispatcher().detector().invocations() << '\n';
  return exact ? 0 : 1;
}
