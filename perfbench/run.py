#!/usr/bin/env python3
"""Cold, layer-attributed benchmark of the Sunflow reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper_inter --seed 7 --seconds 36 --trace 0

Builds perfbench/perfbench.cc against ../src (Release, into .bench_build/),
builds the workload input from --seed, then replays it in fresh processes
until --seconds is spent (at least two replays untraced, one traced). Every
replay is its own process, because the plan memo is process-global and a
second replay in one process would be served warm.

--trace 0 prints the end-to-end metrics of the untraced replays (medians);
--trace 1 prints the per-layer metrics of a profiled replay, plus the cost
of attaching a trace sink. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("paper_inter", "paper_intra", "stream_scale")
DEFAULT_SEED = 20161212
SETUP_REPEATS = 5
# Hard ceiling for one invocation, build excluded.
RUN_BUDGET_S = 170
# Per-arm average CCT must match the recorded value to this relative error.
CCT_RTOL = 1e-9

# Per-layer metrics that come from the setup processes; the rest come from
# the profiled replay, except the trace-sink pair computed below.
SETUP_LAYER = ("trace.generate_s", "trace.write_mb_s", "trace.sort_s",
               "trace.sort_runs")

# The layer each workload is built to isolate (checked in traced runs).
ISOLATION = {
    "paper_inter": ("packet.aalo_s", ("trace.read_s", "engine.replay_s",
                                      "packet.varys_s", "packet.aalo_s")),
    "paper_intra": ("sched.solstice_s", ("trace.read_s", "core.intra_plan_s",
                                         "sched.solstice_s")),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no sunflow sources next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


class Runner:
    """Runs benchmark processes one at a time inside the invocation budget."""

    def __init__(self, workload, seed, work_dir):
        self.base = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
                     "--dir=" + work_dir]
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def call(self, *args):
        timeout = max(1.0, RUN_BUDGET_S - self.elapsed())
        proc = subprocess.run(self.base + list(args), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError("perfbench %s exited %d" %
                               (" ".join(args), proc.returncode))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def arms_of(result):
    return sorted(k[len("avg_cct."):] for k in result
                  if k.startswith("avg_cct."))


def count_failures(workload, seed, runs, expected):
    """Failed operations over every replay: the binary's own bound checks,
    plus a whole arm when its average CCT differs between replays of one
    input or, at the default seed, from the recorded value."""
    failed = 0
    for run in runs:
        for arm in arms_of(run):
            avg = run["avg_cct." + arm]
            want = runs[0]["avg_cct." + arm]
            if seed == DEFAULT_SEED and arm in expected.get(workload, {}):
                want = expected[workload][arm]
            if abs(avg - want) > CCT_RTOL * abs(want):
                log("perfbench: %s avg CCT %.17g, expected %.17g" %
                    (arm, avg, want))
                failed += int(run["attempted." + arm])
            else:
                failed += int(run["failed." + arm])
    return failed


def layer_metrics(workload, setups, layers, plain, obs):
    values = {k: median(setups, k) for k in SETUP_LAYER}
    for k in layers[0]:
        if k.split(".")[0] in ("trace", "engine", "core", "sched", "packet",
                               "profile") and k not in values:
            values[k] = median(layers, k)
    values["obs.events"] = median(obs, "obs.events")
    # Tracing cost: the arms that accept a sink, timed with a counting
    # sink attached minus the same arms untraced.
    values["obs.overhead_s"] = (median(obs, "traced_arms_s") -
                                median(plain, "traced_arms_s"))
    wall = median(layers, "wall_s")
    if workload in ISOLATION:
        target, candidates = ISOLATION[workload]
        biggest = max(candidates, key=lambda k: values[k])
        ok = biggest == target
        verdict = "%s is the largest layer time (%s)" % (biggest, target)
    else:
        share = values["engine.replay_s"] / wall
        ok = share >= 0.8
        verdict = "engine.replay_s is %.1f%% of wall_s (>= 80%%)" % (
            100 * share)
    print("isolation %s: %s" % ("ok" if ok else "VIOLATED", verdict))
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's per-arm average CCTs as the "
                         "expected values (default seed only)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.record and args.seed != DEFAULT_SEED:
        ap.error("--record needs the default seed %d" % DEFAULT_SEED)
    if not build():
        return 1
    expected = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)

    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work_dir)
        setups = [runner.call("--phase=setup") for _ in range(SETUP_REPEATS)]
        modes = ("plain", "layers", "obs") if args.trace else ("plain",)
        reps = {m: [] for m in modes}
        min_reps = 1 if args.trace else 2
        while True:
            begin = runner.elapsed()
            for m in modes:
                reps[m].append(runner.call("--phase=run", "--mode=" + m))
            rep_s = runner.elapsed() - begin
            if (len(reps["plain"]) >= min_reps and
                    runner.elapsed() + rep_s > args.seconds):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    runs = [r for m in modes for r in reps[m]]
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = count_failures(args.workload, args.seed, runs, expected)
    plain = reps["plain"]
    if args.trace:
        values = layer_metrics(args.workload, setups, reps["layers"], plain,
                               reps["obs"])
    else:
        values = {"setup_s": median(setups, "setup_s")}
        for k in ("wall_s", "coflows_per_s", "peak_rss_mb"):
            values[k] = median(plain, k)

    first = plain[0]
    context = {k: first[k] for k in ("version", "build_type", "nproc",
                                     "pool_threads", "seed", "coflows",
                                     "ports")}
    context.update(workload=args.workload, replays=len(plain),
                   setups=len(setups), run_seconds=args.seconds)
    print("context: " + json.dumps(context))
    print("replay wall_s: " + " ".join("%.4f" % r["wall_s"] for r in plain))
    if first["build_type"] != "Release":
        print("WARNING: %s build; never compare these numbers with a "
              "Release build's" % first["build_type"])
    print("failed share: %d/%d operations (%.2f%%)" %
          (failed, attempted, 100.0 * failed / attempted))

    if args.record:
        expected[args.workload] = {a: first["avg_cct." + a]
                                   for a in arms_of(first)}
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
