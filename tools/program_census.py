#!/usr/bin/env python3
"""Which src/ code do the programs run? A line and function census.

A *program* is a bench, a tool, an example or perfbench/perfbench.cc;
tests do not count. The census builds every program at -O0 with
--coverage in a directory outside the source tree (perfbench through its
own CMake project), runs each over the flags it documents (the
*_traffic lists below, --help included), and folds `gcov --json-format --stdout` over every
object outside tests/. Header code compiled into bench and tool objects
counts, and an object no program linked counts as never run. A header
function that no program object emits (one only tests call, or nothing
calls) leaves no coverage record at all; grep finds those.

It prints, per src/ module, the instrumented and the never-run lines,
then every src/ function no program called, with file:line. A function
on the keep list (KEEP below: failure paths, input parsing, test oracles,
fakes and accessors, the §4.2 policies) is marked with its reason; any other is a candidate for
deletion, and the exit status is 0 either way.

Usage (from anywhere; needs cmake, a C++20 g++ and gcov):
  python3 tools/program_census.py [--build-dir DIR] [--jobs N]
      [--report FILE] [--markdown FILE] [--skip-build]

A full run from a clean checkout takes about 7 minutes on a 4-core host
with --jobs 4, most of it the build and one -O0 perfbench paper_inter
replay.
"""

import argparse
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COVERAGE = "-O0 --coverage"

# Functions no program is expected to call, each with the reason it stays.
# A pattern matches the demangled name; the first match wins.
KEEP = [
    # Failure paths: message builders run only when a check fails.
    (r"\{lambda\(\)#\d+\}", "failure path: builds a check's message"),
    (r"::(StallState|ActiveIds|DebugString|FormatFail|Fail|KindError|FmtSpan"
     r"|budget_message)\b|CheckFail\b|DemandMatrix::Total\b",
     "failure path: diagnostic text for a failed check"),
    (r"Scenario::name\(\)|Allocator::name\(\)",
     "failure path: names the scenario in budget and stall messages"),
    (r"CheckFailure::CheckFailure", "failure path: the check's exception"),
    # Input checks: JSON that no program writes but a reader must accept.
    (r"Parser::(ParseHex4|AppendUtf8)|JsonValue::JsonValue\(decltype",
     "input parsing: \\u escapes and null in JSON read from outside"),
    # Test accessors no remaining call can stand in for.
    (r"MetricsRegistry::FindHistogram",
     "test accessor: tests read a histogram's min and percentiles"),
    (r"MemorySink::CountOf", "test accessor: tests count events by type"),
    (r"JsonValue::ToString", "test accessor: JSON round-trip tests print"),
    # Test oracles, checks and fakes that tests hold the production code to.
    (r"SunflowPlanner::ScheduleOneRescan", "test oracle: the rescan planner"),
    (r"::CheckInvariants\b", "test check: PRT invariants"),
    (r"::BusySeconds\b", "test oracle: per-port busy time"),
    (r"::FreeAt\b", "test oracle: PRT point query"),
    (r"TraceCoflowSource", "test fake: an in-memory CoflowSource"),
    (r"GenerateSyntheticTrace\(sunflow::SyntheticTraceConfig const&\)::"
     r"\{lambda", "test oracle: the in-memory sort extsort must match"),
    # Kept on purpose by the knob census (§4.2 policies, combining).
    (r"Make(StaticShortestFirst|WeightedShortestFirst|LeastAttainedService)"
     r"Policy|(StaticShortestFirst|WeightedShortestFirst|LeastAttained"
     r"Service)Policy::", "§4.2 policy, reached only by tests"),
    (r"CombineCoflows|CombineTraceByClass", "§4.2 coflow combining"),
    # Synchronisation is not a simplicity target.
    (r"ThreadPool::", "thread pool: nested-wait stealing"),
    # Reached by a program only on inputs the traffic lacks.
    (r"NextOwnerAfter|FirstStartAfter", "traced gap-limited blocks"),
    (r"::Reset\(\)", "registry reset: tests isolate cases with it"),
]

BENCH_SMALL = ["--coflows=40", "--ports=16"]


def bench_traffic():
    """(program, args) pairs: every bench over the flags it documents."""
    runs = []
    sizes = {
        "fig8_inter_idleness": ["--coflows=60", "--ports=24"],
        "fig_kcore": ["--coflows=30", "--ports=12", "--k_list=1,2"],
        "optimality_gap": ["--trials=20"],
        "trace_scale": ["--coflows=200", "--ports=16", "--run_mb=1"],
        "engine_replan": BENCH_SMALL + ["--repeat=1"],
        "sweep_scaling": BENCH_SMALL + ["--repeat=1"],
    }
    timeline = ["engine_replan", "fig8_inter_idleness", "fig9_cct_diff",
                "fig10_delta_inter", "trace_scale"]
    chrome = ["fig3_intra_vs_tcl", "fig5_switching", "fig8_inter_idleness"]
    for bench in sorted(p.stem for p in (ROOT / "bench").glob("*.cc")):
        if bench == "table3_complexity":
            continue
        size = sizes.get(bench, BENCH_SMALL)
        runs.append((f"bench/{bench}", ["--help"]))
        runs.append((f"bench/{bench}",
                     size + ["--metrics", f"--metrics_csv={bench}.csv"]))
        traced = size + [f"--trace_out={bench}.jsonl"]
        if bench in timeline:
            traced += [f"--timeline_out={bench}.tl.csv", "--timeline_wall",
                       "--timeline_cap=8"]
        runs.append((f"bench/{bench}", traced))
        if bench in chrome:
            runs.append((f"bench/{bench}",
                         size + [f"--trace_out={bench}.trace.json"]))
    small = BENCH_SMALL
    for engine in ["aalo", "circuit", "guarded", "hybrid", "kcore", "rotor",
                   "varys"]:
        runs.append(("bench/engine_replan",
                     small + ["--repeat=1", f"--engine={engine}",
                              "--sweep_coflows=20,40",
                              f"--cct_out=cct_{engine}.txt",
                              f"--timeline_out=tl_{engine}.csv"]))
    fig8 = sizes["fig8_inter_idleness"]
    runs.append(("bench/fig8_inter_idleness", fig8 + ["--all_bandwidths"]))
    for engine in ["guarded", "kcore", "aalo"]:
        runs.append(("bench/fig8_inter_idleness",
                     fig8 + [f"--engine={engine}"]))
    runs += [
        ("bench/fig3_intra_vs_tcl", small + ["--all_algos"]),
        ("bench/fig6_delta_intra", small + ["--solstice"]),
        ("bench/fig7_vs_tpl", small + ["--csv_out=fig7.out.csv"]),
        ("bench/fig9_cct_diff", small + ["--csv_out=fig9.out.csv"]),
        ("bench/fig_kcore",
         sizes["fig_kcore"] + ["--split_bandwidth=false"]),
        ("bench/table3_complexity", ["--help"]),
        ("bench/table3_complexity",
         ["--benchmark_filter=/(1|8|16|32|64)$|HugeFabric",
          "--benchmark_min_time=0.01",
          "--manifest_out=table3.manifest.json"]),
    ]
    return runs


def tool_traffic():
    """Every trace_tool subcommand, every trace_inspect mode, the examples."""
    tool = "tools/sunflow_trace_tool"
    inspect = "tools/sunflow_trace_inspect"
    runs = [(f"tools/{t}", a) for t in ["sunflow_trace_tool",
                                        "sunflow_trace_inspect",
                                        "sunflow_bench_compare"]
            for a in (["--help"], ["--version"])]
    runs += [
        (tool, ["generate", "--coflows=300", "--ports=24",
                "--out=gen.txt"]),
        (tool, ["generate", "--coflows=3000", "--iid_arrivals",
                "--stream_out=big.sft"]),
        (tool, ["info", "--trace=gen.txt"]),
        (tool, ["info", "--trace=big.sft"]),
        (tool, ["info", "--coflows=60", "--ports=16"]),
        (tool, ["convert", "--in=gen.txt", "--out=gen.sft"]),
        (tool, ["convert", "--in=gen.sft", "--out=gen.back.txt"]),
        (tool, ["convert", "--in=gen.txt", "--out=gen.deflate.sft",
                "--codec=deflate"]),
        # 17 runs and 5 merge passes at fan-in 2, with either codec.
        (tool, ["sort", "--in=big.sft", "--out=big.sorted.sft", "--run_mb=1",
                "--fan_in=2", "--threads=2"]),
        (tool, ["sort", "--in=big.sft", "--out=big.deflate.sft", "--run_mb=1",
                "--fan_in=2", "--codec=deflate"]),
        (tool, ["cat", "--in=big.deflate.sft", "--limit=5"]),
        (tool, ["bench", "--coflows=400", "--ports=24", "--run_mb=1",
                "--block_kb=8", "--threads=2",
                "--manifest_out=trace_io.manifest.json"]),
        (tool, ["scale", "--trace=gen.txt", "--idleness=0.5",
                "--out=gen.scaled.txt"]),
        (tool, ["bounds", "--trace=gen.txt"]),
        (tool, ["bounds", "--trace=big.sorted.sft"]),
        (inspect, ["--trace=fig8_inter_idleness.jsonl", "--top=5"]),
        (inspect, ["--trace=fig8_inter_idleness.jsonl", "--csv"]),
        (inspect, ["--trace=fig8_inter_idleness.jsonl", "--attribution"]),
        (inspect, ["--trace=fig8_inter_idleness.jsonl", "--attribution",
                   "--csv"]),
        (inspect, ["--trace=fig8_inter_idleness.jsonl", "--audit"]),
        (inspect, ["--trace=fig5_switching.jsonl", "--audit",
                   "--audit_scope=coflow"]),
        (inspect, ["--trace=fig_kcore.jsonl", "--attribution"]),
        (inspect, ["--manifest=fig8_inter_idleness.manifest.json"]),
        (inspect, ["--timeline=fig8_inter_idleness.tl.csv"]),
    ]
    for ex in sorted(p.stem for p in (ROOT / "examples").glob("*.cpp")):
        # cluster_replay's default replays 200 coflows on 150 ports, minutes
        # at -O0; a smaller trace takes the same paths.
        small = ["--coflows=40", "--ports=24"] if ex == "cluster_replay" else []
        runs.append((f"examples/{ex}", small))
    runs.append(("examples/quickstart", ["--svg_out=quickstart.svg"]))
    return runs


def perfbench_traffic():
    """perfbench setup and run phases; paper_inter runs once, plain."""
    runs = []
    for workload in ["paper_inter", "paper_intra", "stream_scale"]:
        wdir = f"pb_{workload}"
        base = [f"--workload={workload}", f"--dir={wdir}"]
        runs.append(("mkdir", [wdir]))
        runs.append(("perfbench", ["--phase=setup"] + base))
        modes = ["plain"] if workload == "paper_inter" else [
            "plain", "layers", "obs"]
        for mode in modes:
            runs.append(("perfbench", ["--phase=run", f"--mode={mode}"] +
                         base))
    return runs


def sh(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"census: {' '.join(map(str, cmd))} failed "
                 f"({proc.returncode}):\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")


def build(build_dir, jobs):
    main, perf = build_dir / "main", build_dir / "perfbench"
    flags = [f"-DCMAKE_CXX_FLAGS={COVERAGE}", "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    targets = [p.stem for p in (ROOT / "bench").glob("*.cc")]
    targets += [p.stem for p in (ROOT / "examples").glob("*.cpp")]
    targets += ["sunflow_" + p.stem for p in (ROOT / "tools").glob("*.cc")]
    sh(["cmake", "-S", ROOT, "-B", main, *flags])
    sh(["cmake", "--build", main, "-j", str(jobs), "--target", *targets])
    sh(["cmake", "-S", ROOT / "perfbench", "-B", perf, *flags])
    sh(["cmake", "--build", perf, "-j", str(jobs)])


def run_traffic(build_dir, work):
    """Runs every program; returns the failed invocations."""
    main, perf = build_dir / "main", build_dir / "perfbench"
    failures = []
    runs = bench_traffic() + tool_traffic() + perfbench_traffic()
    for program, args in runs:
        if program == "mkdir":
            (work / args[0]).mkdir(exist_ok=True)
            continue
        exe = perf / "perfbench" if program == "perfbench" else main / program
        proc = subprocess.run([str(exe), *args], cwd=work,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        # --help of a tool without a trace prints usage and exits 2.
        if proc.returncode not in (0, 2) or (
                proc.returncode == 2 and "--help" not in args):
            failures.append(f"{program} {' '.join(args)}: exit "
                            f"{proc.returncode}: {proc.stderr.strip()[:200]}")
    harness_out = work / "harness"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "harness.py"), "--build-dir",
         str(main), "--out-dir", str(harness_out), "--repeat", "1",
         "--benches", "fig5_switching,engine_replan",
         "--extra-args=" + " ".join(BENCH_SMALL)],
        cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        failures.append("bench/harness.py: " + proc.stderr.strip()[:200])
    for result in sorted(harness_out.glob("BENCH_*.json")):
        subprocess.run([str(main / "tools" / "sunflow_bench_compare"),
                        f"--baseline={result}", f"--candidate={result}"],
                       cwd=work, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    return failures


def collect(build_dir):
    """Per src/ file: {line: executed?} and {(name, line): calls}."""
    lines = defaultdict(dict)
    funcs = defaultdict(lambda: defaultdict(int))
    notes = [p for p in build_dir.rglob("*.gcno")
             if "/tests/" not in str(p.relative_to(build_dir))]
    for i in range(0, len(notes), 64):
        batch = notes[i:i + 64]
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", *map(str, batch)],
            cwd=build_dir, capture_output=True, text=True)
        for doc in proc.stdout.splitlines():
            if not doc.startswith("{"):
                continue
            for entry in json.loads(doc).get("files", []):
                path = Path(entry["file"])
                if not path.is_absolute():
                    path = (build_dir / path).resolve()
                try:
                    rel = path.resolve().relative_to(SRC)
                except ValueError:
                    continue
                for ln in entry.get("lines", []):
                    n = ln["line_number"]
                    lines[rel][n] = lines[rel].get(n, False) or ln["count"] > 0
                for fn in entry.get("functions", []):
                    key = (fn.get("demangled_name", fn["name"]),
                           fn["start_line"])
                    funcs[rel][key] += fn["execution_count"]
    return lines, funcs


def keep_reason(name):
    for pattern, reason in KEEP:
        if re.search(pattern, name):
            return reason
    return None


@functools.lru_cache(maxsize=None)
def source_lines(rel):
    return (SRC / rel).read_text(encoding="utf-8").splitlines()


def defaulted(rel, line):
    """True when src/rel:line declares a defaulted (`= default`) member:
    gcov instruments those only in some of the objects that use them."""
    lines = source_lines(rel)
    text = lines[line - 1] if 0 < line <= len(lines) else ""
    return re.search(r"=\s*default\s*;", text) is not None


def report(lines, funcs, failures):
    out = []
    modules = defaultdict(lambda: [0, 0])
    for rel, seen in lines.items():
        m = modules[rel.parts[0]]
        m[0] += len(seen)
        m[1] += sum(1 for hit in seen.values() if not hit)
    out.append("| src/ module | instrumented lines | never run | share |")
    out.append("|---|---|---|---|")
    total = [0, 0]
    for name in sorted(modules):
        inst, never = modules[name]
        total[0] += inst
        total[1] += never
        out.append(f"| {name} | {inst} | {never} | "
                   f"{100.0 * never / max(inst, 1):.1f}% |")
    out.append(f"| total | {total[0]} | {total[1]} | "
               f"{100.0 * total[1] / max(total[0], 1):.1f}% |")
    candidates, kept = [], []
    for rel in sorted(funcs):
        for (name, line), calls in sorted(funcs[rel].items(),
                                          key=lambda kv: kv[0][1]):
            if calls > 0 or defaulted(rel, line):
                continue
            where = f"src/{rel}:{line}"
            reason = keep_reason(name)
            if reason is None:
                candidates.append(f"- `{where}` {name}")
            else:
                kept.append(f"- `{where}` {name} — keep: {reason}")
    out.append("")
    out.append(f"### Never called by a program, not on the keep list "
               f"({len(candidates)})")
    out += candidates or ["- none"]
    if failures:
        out.append("")
        out.append(f"### Program runs that failed ({len(failures)})")
        out += [f"- {f}" for f in failures]
    out.append("")
    out.append(f"### Never called, on the keep list ({len(kept)})")
    out += kept or ["- none"]
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(
        tempfile.gettempdir(), "sunflow_census"),
        help="coverage build directory, outside the source tree")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--report", help="also write the full report here")
    ap.add_argument("--markdown",
                    help="append the module table, the candidates and any "
                         "failed run here "
                         "(e.g. $GITHUB_STEP_SUMMARY)")
    ap.add_argument("--skip-build", action="store_true",
                    help="reuse an existing coverage build")
    args = ap.parse_args()
    build_dir = Path(args.build_dir).resolve()
    if build_dir == ROOT or ROOT in build_dir.parents:
        ap.error("--build-dir must lie outside the source tree")
    if not args.skip_build:
        build(build_dir, args.jobs)
    for stale in build_dir.rglob("*.gcda"):
        stale.unlink()
    work = build_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = run_traffic(build_dir, work)
    text = report(*collect(build_dir), failures)
    sys.stdout.write(text)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    if args.markdown:
        head = text.split("\n### Never called, on the keep list")[0]
        with open(args.markdown, "a", encoding="utf-8") as f:
            f.write("## Program census\n\n" + head + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
