// Umbrella header: the public API of the Loom reproduction library.
//
// Quickstart:
//   #include "core/loom.hpp"
//   auto workload = loom::sim::prepare_network("alexnet",
//                                              loom::quant::AccuracyTarget::k100);
//   loom::core::ExperimentRunner runner;             // E = 128, all archs
//   auto cmp = runner.compare({"alexnet"});          // vs DPNN baseline
//   std::cout << loom::core::format_table2(cmp);
#pragma once

#include "arch/config.hpp"
#include "arch/detector.hpp"
#include "arch/serializer.hpp"
#include "arch/sip.hpp"
#include "arch/tile.hpp"
#include "common/bitops.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/options.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "mem/bitpacked.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "mem/tile_plan.hpp"
#include "mem/timeline.hpp"
#include "nn/network.hpp"
#include "nn/reference.hpp"
#include "nn/synthetic.hpp"
#include "nn/tensor.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/calibration.hpp"
#include "quant/group_precision.hpp"
#include "quant/profiler.hpp"
#include "quant/profiles.hpp"
#include "sim/comparison.hpp"
#include "sim/laconic_sim.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
