#!/usr/bin/env python3
"""Bench regression harness: run each bench N times, aggregate manifests.

Every bench binary writes a self-describing run manifest
(``sunflow.run_manifest/v1``, see src/obs/manifest.h). This harness runs a
configurable set of benches ``--repeat`` times each, collects the per-run
manifests, and writes one ``BENCH_<name>.json`` aggregate per bench
(schema ``sunflow.bench/v1``) carrying the median and p95 of wall time,
peak RSS, every profiled phase, and rate-style extras. Those aggregates
are what ``tools/bench_compare`` diffs and what CI gates on; committed
baselines live in bench/baselines/.

Usage:
  python3 bench/harness.py --build-dir build --out-dir bench_results \
      [--repeat 3] [--benches fig3,engine_replan] \
      [--extra-args="--coflows=80 --ports=40"]

Only the Python standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_SCHEMA = "sunflow.bench/v1"
MANIFEST_SCHEMA = "sunflow.run_manifest/v1"

# name -> (binary relative to the build dir, extra fixed args, threads).
# `threads` is the explicit --threads value for the bench, appended as a
# column so every aggregate records what it ran with; None leaves the flag
# off (table3_complexity is a google-benchmark binary with its own flags).
# sweep_scaling pins --threads=8 so the committed baseline actually
# exercises the pool (sweep fan-out): the default (0 = hardware threads)
# degenerates to a serial run on a 1-core bless host, silently committing
# parallel-path-never-ran numbers. engine_replan and fig_kcore keep their
# --threads=8 pin only so their argv matches the committed baselines:
# every replan plans serially, so the flag changes nothing they time.
# The threads pin changes wall-clock only — outputs are byte-identical at
# any value.
# table3_complexity's short min_time keeps the repeat loop affordable.
BENCHES = {
    "fig3_intra_vs_tcl": ("bench/fig3_intra_vs_tcl", ["--all_algos"], 1),
    "fig4_m2m_cdf": ("bench/fig4_m2m_cdf", [], 1),
    "fig5_switching": ("bench/fig5_switching", [], 1),
    "fig6_delta_intra": ("bench/fig6_delta_intra", [], 1),
    "fig7_vs_tpl": ("bench/fig7_vs_tpl", [], 1),
    "fig8_inter_idleness": ("bench/fig8_inter_idleness", [], 1),
    "fig9_cct_diff": ("bench/fig9_cct_diff", [], 1),
    "fig10_delta_inter": ("bench/fig10_delta_inter", [], 1),
    "engine_replan": (
        "bench/engine_replan",
        ["--sweep_coflows=20,40,80,160"],
        8,
    ),
    "sweep_scaling": ("bench/sweep_scaling", [], 8),
    "fig_kcore": ("bench/fig_kcore", ["--coflows=120"], 8),
    "table3_complexity": (
        "bench/table3_complexity",
        ["--benchmark_min_time=0.05"],
        None,
    ),
    # Out-of-core trace pipeline (docs/traces.md): stream write/read/sort
    # throughput, and the generate -> extsort -> streamed-replay loop.
    # Both surface trace.write_mb_s / trace.read_mb_s / trace.sort_mb_s
    # in the manifest "extra" scalars.
    "trace_io": ("tools/sunflow_trace_tool", ["bench", "--run_mb=8"], 8),
    # Replay wall-clock grows superlinearly with the active set, so the
    # harness default stays modest; CI's smoke --extra-args override wins
    # (later duplicate flags take precedence).
    "trace_scale": ("bench/trace_scale", ["--coflows=2000", "--run_mb=4"], 8),
}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, matching common/stats.h semantics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "p95": percentile(values, 95),
        "min": min(values),
        "max": max(values),
    }


def aggregate(name: str, manifests: list[dict]) -> dict:
    """Folds N run manifests into one sunflow.bench/v1 document."""
    first = manifests[0]
    out = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "repeat": len(manifests),
        "tool": first["tool"],
        "argv": first["argv"],
        "git_sha": first["git_sha"],
        "git_dirty": first["git_dirty"],
        "build_type": first["build_type"],
        "host": first["host"],
        # Core count of the machine that produced this aggregate: rate
        # metrics from hosts with different parallelism are not comparable,
        # and bench_compare warns when the counts differ.
        "host_nproc": first.get("hardware_threads", 0),
        "threads": first["run"].get("threads", 0),
        "wall_ns": summarize([m["run"]["wall_ns"] for m in manifests]),
        "peak_rss_kb": summarize(
            [float(m["run"]["peak_rss_kb"]) for m in manifests]
        ),
        "overhead_fraction": summarize(
            [m["profile"]["overhead"]["fraction"] for m in manifests]
        ),
    }

    # Phases: aggregate only those present in every run (a phase that only
    # sometimes fires would compare medians of different populations).
    common = set(manifests[0]["profile"]["phases"])
    for m in manifests[1:]:
        common &= set(m["profile"]["phases"])
    phases = {}
    for phase in sorted(common):
        rows = [m["profile"]["phases"][phase] for m in manifests]
        phases[phase] = {
            "total_ns": summarize([r["total_ns"] for r in rows]),
            "self_ns": summarize([r["self_ns"] for r in rows]),
            "count": summarize([float(r["count"]) for r in rows]),
        }
    out["phases"] = phases

    # Extras are whatever scalar keys the bench added beyond the standard
    # four; keep them all so rate metrics reach bench_compare.
    standard = {"seed", "threads", "wall_ns", "peak_rss_kb"}
    extra_keys = set(first["run"]) - standard
    for m in manifests[1:]:
        extra_keys &= set(m["run"])
    out["extra"] = {
        key: summarize([m["run"][key] for m in manifests])
        for key in sorted(extra_keys)
    }
    return out


def run_bench(
    name: str,
    binary: Path,
    fixed_args: list[str],
    extra_args: list[str],
    repeat: int,
    scratch: Path,
) -> list[dict]:
    manifests = []
    for i in range(repeat):
        manifest_path = scratch / f"{name}.{i}.manifest.json"
        cmd = [
            str(binary),
            *fixed_args,
            *extra_args,
            f"--manifest_out={manifest_path}",
        ]
        proc = subprocess.run(
            cmd, cwd=scratch, capture_output=True, text=True
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            raise RuntimeError(
                f"{name} run {i} failed with exit {proc.returncode}"
            )
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise RuntimeError(
                f"{manifest_path} has schema {manifest.get('schema')!r}, "
                f"expected {MANIFEST_SCHEMA!r}"
            )
        manifests.append(manifest)
    return manifests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--build-dir", default="build", help="CMake build directory"
    )
    parser.add_argument(
        "--out-dir",
        default="bench_results",
        help="directory for BENCH_<name>.json aggregates",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="runs per bench"
    )
    parser.add_argument(
        "--benches",
        default=",".join(BENCHES),
        help="comma-separated subset of: " + ", ".join(BENCHES),
    )
    parser.add_argument(
        "--extra-args",
        default="",
        help="flags appended to every bench invocation "
        '(e.g. "--coflows=80 --ports=40")',
    )
    args = parser.parse_args()

    build_dir = Path(args.build_dir).resolve()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra_args = args.extra_args.split()

    selected = [b.strip() for b in args.benches.split(",") if b.strip()]
    unknown = [b for b in selected if b not in BENCHES]
    if unknown:
        parser.error(f"unknown bench(es): {', '.join(unknown)}")

    failures = []
    with tempfile.TemporaryDirectory(prefix="sunflow_bench_") as scratch_str:
        scratch = Path(scratch_str)
        for name in selected:
            rel, fixed_args, threads = BENCHES[name]
            if threads is not None:
                fixed_args = [*fixed_args, f"--threads={threads}"]
            binary = build_dir / rel
            if not binary.exists():
                failures.append(f"{name}: missing binary {binary}")
                continue
            print(f"[harness] {name}: {args.repeat} run(s)", flush=True)
            try:
                manifests = run_bench(
                    name, binary, fixed_args, extra_args, args.repeat, scratch
                )
            except RuntimeError as err:
                failures.append(str(err))
                continue
            result = aggregate(name, manifests)
            out_path = out_dir / f"BENCH_{name}.json"
            with open(out_path, "w", encoding="utf-8") as f:
                json.dump(result, f, indent=2, sort_keys=True)
                f.write("\n")
            wall_ms = result["wall_ns"]["median"] / 1e6
            print(
                f"[harness]   wall median {wall_ms:.1f} ms, "
                f"{len(result['phases'])} phases -> {out_path}",
                flush=True,
            )

    if failures:
        for failure in failures:
            print(f"[harness] FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
