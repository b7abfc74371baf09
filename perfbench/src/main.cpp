// perfbench: the repository benchmark's measuring program. run.py builds it
// and runs one subcommand per process:
//
//   perfbench run --workload infer_zoo|serve_mix --seed N --seconds S
//                 --trace 0|1 [--rate R] [--p99-limit-ms L] [--tuned F]
//                 [--out-dir D]
//   perfbench tune --workload infer_zoo --tuned F [--out-dir D]
//   perfbench setup --workload serve_mix --seed N
//   perfbench sweep-setup --seed N
//   perfbench sweep-sample --seed N [--trace 0|1] [--out-dir D]
//   perfbench sweep-trace --seed N [--out-dir D]
//
// Each prints one `RESULT {json}` line last and exits 1 when a correctness
// gate failed (the line still says which). With --trace 1 the spans
// recorded around the calls into each layer are written to
// <out-dir>/trace-<subcommand>-<workload>-<seed>.json at the end.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run|tune|setup|sweep-setup|sweep-sample|sweep-trace ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Report report;
  try {
    const Args args(argc, argv, 2);
    const std::string workload = args.get("workload", "");
    Tracer::instance().enable(args.integer("trace", 0) != 0 || cmd == "sweep-trace");
    if (cmd == "run" && workload == "infer_zoo") {
      run_infer_zoo(args, report);
    } else if (cmd == "run" && workload == "serve_mix") {
      run_serve_mix(args, report);
    } else if (cmd == "tune" && workload == "infer_zoo") {
      run_infer_zoo_tune(args, report);
    } else if (cmd == "setup" && workload == "serve_mix") {
      run_serve_setup(args, report);
    } else if (cmd == "sweep-setup") {
      run_sweep_setup(args, report);
    } else if (cmd == "sweep-sample") {
      run_sweep_sample(args, report);
    } else if (cmd == "sweep-trace") {
      run_sweep_trace(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown command '%s' for workload '%s'\n",
                   cmd.c_str(), workload.c_str());
      return 2;
    }
    add_build_notes(report);
    if (Tracer::instance().enabled()) {
      const std::string path = args.get("out-dir", ".") + "/trace-" + cmd + "-" +
                               (workload.empty() ? "sweep" : workload) + "-" +
                               args.get("seed", "1") + ".json";
      if (!Tracer::instance().write(path)) report.fail("cannot write " + path);
      report.notes["trace.file"] = path;
      report.notes["trace.spans"] = std::to_string(Tracer::instance().size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct ? 0 : 1;
}
