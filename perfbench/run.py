#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload infer_zoo|serve_mix|sweep_table2 \
        --seed N --seconds S --trace 0|1 [--rate R] [--p99-limit-ms L]

Run it from the repository root. It builds perfbench/ (which compiles
../src) into .bench_build/ with CMake in Release mode, runs the workload in
fresh perfbench processes, prints every measurement by name with its unit
and sample count, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 0 only when every correctness gate passed. A failed gate still
prints that line (with "correct": false) and exits 1; a run that cannot be
built or completed prints no result and exits 1.

Workloads (the seed makes every input; the program sees only those inputs):

  infer_zoo     one client, closed loop: FunctionalLoomEngine::run_network,
                jobs=1, batch 1, NiN and AlexNet images alternating (100%
                profiles, synthetic registry weights). One image per network
                is checked against the nn::reference chain. The kernel per
                layer comes from `perfbench tune`, run once per build of
                perfbench in this checkout: the autotuner's own exploration
                repeated five times, median winner per cell, saved as
                an autotune cache the measuring process loads (one
                exploration per process picks a different kernel mix each
                time on a shared host).
  serve_mix     InferenceServer (2 workers, engine jobs=1, max_batch 8,
                200 us batch deadline, queue depth 64) fed an open-loop,
                seeded 50/50 convnet/mlp mix at --rate requests/s from one
                generator thread (Priority::kBatch, try_submit with zero
                timeout, so a full queue sheds) for 5 s (half of --seconds
                if that is less), then a closed-loop phase with 16 requests
                outstanding for the rest of --seconds. Every completed
                output is checked against a solo run_network.
  sweep_table2  the 100% half of bench_table2_speedup: ExperimentRunner::
                compare over the six paper networks, E=128, unconstrained,
                jobs=4, each sample in a fresh process (the calibration
                memo has no reset, and users pay it on every run); one
                sample per run, more only while another fits in --seconds.

End-to-end metrics (--trace 0), reported by every workload:

  setup_s           set-up before timing starts. infer_zoo: registration,
                    loading the tuned autotune cache and warm-up until every
                    cell is decided, in the measuring process. serve_mix:
                    the same, median over the measuring process and two
                    fresh set-up processes. sweep_table2: process start
                    plus ExperimentRunner construction, median over nine
                    fresh processes.
  peak_rss_mb       peak resident memory of the measuring process (the
                    largest over sweep_table2's sample processes; for
                    serve_mix, up to the end of the fixed-rate phase).
  p50_ms            median time of one unit of work. infer_zoo:
                    nin_ms_p50 + alexnet_ms_p50 (one image of each).
                    serve_mix: serve_p50_ms.convnet + serve_p50_ms.mlp,
                    per-model median request latency at the fixed rate,
                    timed from the scheduled send (one request of each;
                    the pooled median of the 50/50 mix falls between the
                    two models' modes and is unsteady). sweep_table2: the
                    CPU time (user + system, all threads) of the cold
                    sweep, median over samples. Its wall time, sweep_s, is
                    printed and is a per-layer metric: the four sweep
                    threads mostly wait on each other's lazily built layer
                    caches, so wall time follows thread scheduling and host
                    load and moved 25% between sets of runs of one build.
  throughput_per_s  work finished per second. infer_zoo: 2 / pair_ms_p50,
                    the median time of one NiN image followed by one
                    AlexNet image (the loop mean, images_per_s, is printed;
                    one stalled image moves it). serve_mix: serve_capacity_rps, completions/s
                    with 16 outstanding. sweep_table2: simulated
                    (network, architecture) results per CPU second of sweep.

The per-workload measurements the end-to-end metrics derive from
(nin_ms_p50, alexnet_ms_p50, serve_p50_ms/p90/p99/max, serve_capacity_rps,
sweep_s, generator lateness, request counts) are printed above the JSON.

Per-layer metrics (--trace 1) come from a separate traced run that records
spans around the calls into each layer from perfbench's own files and
writes them to .bench_out/trace-*.json (Chrome trace-event format). Every
traced run reports the whole PER_LAYER list below; a metric of a layer the
workload does not exercise reads 0. The tracing overhead is printed as the
traced run's end-to-end numbers minus those of the last untraced run of the
same workload in this checkout.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 160

NIN_LAYERS = ["conv1", "cccp1", "cccp2", "conv2", "cccp3", "cccp4", "conv3",
              "cccp5", "cccp6", "conv4", "cccp7", "cccp8"]
ALEXNET_LAYERS = ["conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7",
                  "fc8"]
PAPER_NETWORKS = ["nin", "alexnet", "googlenet", "vggs", "vggm", "vgg19"]
SWEEP_ARCHS = ["dpnn", "stripes", "lm1b", "lm2b", "lm4b", "laconic"]

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
}

# name -> unit; the end-to-end metric each should move is in the comment.
PER_LAYER = {}
for _net, _layers in (("nin", NIN_LAYERS), ("alexnet", ALEXNET_LAYERS)):
    for _layer in _layers:  # -> nin_ms_p50 / alexnet_ms_p50
        PER_LAYER[f"engine.layer_ms.{_net}.{_layer}"] = "ms"
    PER_LAYER[f"engine.glue_ms.{_net}"] = "ms"
    PER_LAYER[f"engine.gmac_per_s.{_net}"] = "GMAC/s"
    PER_LAYER[f"functional_cycles.{_net}"] = "cycles"  # must repeat exactly
PER_LAYER["autotune.explore_records"] = "count"  # must be 0 while measuring
PER_LAYER.update({
    "server.queue_wait_ms_p50": "ms",  # -> serve_p99_ms
    "server.queue_wait_ms_p99": "ms",  # -> serve_p99_ms
    "server.run_ms_p50": "ms",  # -> serve_p50_ms
    "server.overhead_ms_p50": "ms",  # -> serve_p50_ms
    "server.batch_mean": "count",  # -> serve_capacity_rps
})
for _model in ("convnet", "mlp"):  # -> serve_capacity_rps
    for _b in ("b1", "b8"):
        PER_LAYER[f"engine.batch_ms.{_model}.{_b}"] = "ms"
for _what in ("shed", "failed", "timed_out"):  # shares of attempted
    PER_LAYER[f"server.{_what}"] = "share"
for _model in ("nin", "alexnet", "convnet", "mlp"):  # -> setup_s
    PER_LAYER[f"setup.register_ms.{_model}"] = "ms"
    PER_LAYER[f"setup.snapshot_load_ms.{_model}"] = "ms"
for _net in PAPER_NETWORKS:  # -> sweep_s; cold - warm = the calibration memo
    PER_LAYER[f"sweep.prep_cold_ms.{_net}"] = "ms"
    PER_LAYER[f"sweep.prep_warm_ms.{_net}"] = "ms"
for _arch in SWEEP_ARCHS:  # -> sweep_s
    PER_LAYER[f"sweep.simulate_ms.{_arch}"] = "ms"
PER_LAYER["sweep.parallel_eff"] = "ratio"  # CPU time / (sweep_s x jobs)
PER_LAYER["sweep_s"] = "s"  # wall time of the cold sweep; see p50_ms below


class BenchError(Exception):
    pass


def build():
    """Configure once, then (re)build the perfbench target."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise BenchError("the loom sources (src/) are missing next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def child(binary, *args):
    """Run one perfbench process and return its parsed RESULT record.

    perfbench exits 1 after printing its record when a correctness gate
    failed; that record is returned too, and says what failed.
    """
    cmd = [binary, *map(str, args), "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def value(rec, name):
    return rec["metrics"].get(name, {"value": 0.0})["value"]


class Outcome:
    """Everything one workload run found, merged over its processes."""

    def __init__(self):
        self.raw = {}  # name -> (value, unit, samples), printed for humans
        self.notes = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.e2e = {}

    def absorb(self, rec):
        for name, m in rec["metrics"].items():
            self.raw[name] = (m["value"], m["unit"], m["samples"])
        self.notes.update(rec["notes"])
        self.errors += rec["errors"]
        if not rec["correct"] and not rec["errors"]:
            self.errors.append("a perfbench process reported incorrect output")
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]


def zoo_tuning(binary):
    """The infer_zoo autotune cache for this build, tuned on first use."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(OUT_DIR, f"infer_zoo-tuned-{build_id}.bin")
    if not os.path.isfile(path):
        rec = child(binary, "tune", "--workload", "infer_zoo", "--tuned", path)
        if not rec["correct"]:
            raise BenchError("tuning infer_zoo failed: " + "; ".join(rec["errors"]))
    return path


def run_infer_zoo(binary, a, out):
    rec = child(binary, "run", "--workload", "infer_zoo", "--seed", a.seed,
                "--seconds", a.seconds, "--trace", a.trace,
                "--tuned", zoo_tuning(binary))
    out.absorb(rec)
    out.e2e = {
        "setup_s": value(rec, "setup_s"),
        "peak_rss_mb": value(rec, "peak_rss_mb"),
        "p50_ms": value(rec, "nin_ms_p50") + value(rec, "alexnet_ms_p50"),
        "throughput_per_s": 2e3 / value(rec, "pair_ms_p50"),
    }


def run_serve_mix(binary, a, out):
    rec = child(binary, "run", "--workload", "serve_mix", "--seed", a.seed,
                "--seconds", a.seconds, "--trace", a.trace, "--rate", a.rate,
                "--p99-limit-ms", a.p99_limit_ms)
    out.absorb(rec)
    setups = [value(rec, "setup_s")]
    for _ in range(2):
        s = child(binary, "setup", "--workload", "serve_mix", "--seed", a.seed)
        out.errors += s["errors"]
        setups.append(value(s, "setup_s"))
    out.raw["setup_s"] = (statistics.median(setups), "s", len(setups))
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": value(rec, "peak_rss_mb"),
        "p50_ms": value(rec, "serve_p50_ms.convnet") + value(rec, "serve_p50_ms.mlp"),
        "throughput_per_s": value(rec, "serve_capacity_rps"),
    }


def run_sweep_table2(binary, a, out):
    # One cold sample, then more only while another fits in --seconds.
    samples = []
    t0 = time.monotonic()
    while not samples or (time.monotonic() - t0) * (len(samples) + 1) / len(
            samples) <= a.seconds:
        rec = child(binary, "sweep-sample", "--seed", a.seed, "--trace", a.trace)
        out.absorb(rec)
        samples.append(rec)
    setups = []
    for _ in range(9):
        spawned = time.monotonic_ns()
        setups.append((value(child(binary, "sweep-setup", "--seed", a.seed),
                             "ready_ns") - spawned) / 1e9)
    out.raw["setup_s"] = (statistics.median(setups), "s", len(setups))
    sweep_s = statistics.median(value(r, "sweep_s") for r in samples)
    cpu_s = statistics.median(value(r, "sweep.cpu_s") for r in samples)
    results = samples[0]["attempted"]
    out.raw["sweep_s"] = (sweep_s, "s", len(samples))
    out.raw["sweep.cpu_s"] = (cpu_s, "s", len(samples))
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(value(r, "peak_rss_mb") for r in samples),
        "p50_ms": 1e3 * cpu_s,
        "throughput_per_s": results / cpu_s,
    }
    if a.trace:
        out.raw["sweep.parallel_eff"] = (
            statistics.median(value(r, "sweep.parallel_eff") for r in samples),
            "ratio", len(samples))
        phases = child(binary, "sweep-trace", "--seed", a.seed)
        out.absorb(phases)
        # The serial simulation of the warm workloads must reproduce every
        # result of the parallel cold sweep exactly.
        for key, digest in samples[0]["notes"].items():
            if key.startswith("digest.") and phases["notes"].get(key) != digest:
                out.errors.append(f"{key}: cold parallel sweep and warm serial "
                                  f"simulation disagree")


WORKLOADS = {
    "infer_zoo": run_infer_zoo,
    "serve_mix": run_serve_mix,
    "sweep_table2": run_sweep_table2,
}


def host_notes():
    notes = {"host.nproc": str(os.cpu_count()),
             "host.cpus_allowed": str(len(os.sched_getaffinity(0)))}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    notes["host.cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    loom_env = {k: v for k, v in os.environ.items() if k.startswith("LOOM_")}
    notes["host.loom_env"] = json.dumps(loom_env, sort_keys=True)
    return notes


def print_human(workload, a, out):
    print(f"workload {workload} seed {a.seed} seconds {a.seconds} trace {a.trace}")
    for name in sorted(out.raw):
        v, unit, n = out.raw[name]
        print(f"  {name:<40} {v:>16.6g} {unit:<8} n={n}")
    for key in sorted(out.notes):
        if not key.startswith("digest."):
            print(f"  note {key}: {out.notes[key]}")
    digests = sorted(k for k in out.notes if k.startswith("digest."))
    for key in digests:
        print(f"  {key} {out.notes[key]}")
    for err in out.errors:
        print(f"  ERROR {err}")


def tracing_overhead(workload, out):
    """Traced end-to-end numbers minus the last untraced run's."""
    path = os.path.join(OUT_DIR, f"last-untraced-{workload}.json")
    if not os.path.isfile(path):
        print("  tracing overhead: no untraced run of this workload yet")
        return
    with open(path) as f:
        base = json.load(f)
    for name, v in out.e2e.items():
        if name in base:
            print(f"  tracing overhead {name}: {v - base[name]:+.6g} "
                  f"({v:.6g} traced vs {base[name]:.6g} untraced, seed "
                  f"{base.get('seed')})")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rate", type=float, required=True,
                   help="serve_mix offered load, requests/s")
    p.add_argument("--p99-limit-ms", type=float, required=True,
                   help="serve_mix latency limit; misses, sheds and failures "
                        "are counted against it")
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        binary = build()
        os.makedirs(OUT_DIR, exist_ok=True)
        out = Outcome()
        WORKLOADS[a.workload](binary, a, out)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    out.notes.update(host_notes())
    print_human(a.workload, a, out)
    if a.trace:
        tracing_overhead(a.workload, out)
        metrics = {n: {"value": out.raw.get(n, (0.0,))[0], "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        with open(os.path.join(OUT_DIR, f"last-untraced-{a.workload}.json"),
                  "w") as f:
            json.dump({**out.e2e, "seed": a.seed}, f)
        metrics = {n: {"value": out.e2e[n], "unit": u}
                   for n, u in END_TO_END.items()}
    correct = not out.errors and (
        bool(a.trace) or all(m["value"] > 0 for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
