"""Benchmark runner for sl2rep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under ./src.
The workload's commands are generated from the seed (see workloads.py)
and run as a fixed number of passes, each pass in a fresh interpreter
(worker.py) that runs every command once, in order, as a single
caller.  The number of passes is set from --seconds and a nominal pass
length, so every run of a workload has the same shape.  Every output
of every pass is checked against references that do not use sl2rep
(check.py), and the checker is itself tested on corrupted copies of
the first pass's outputs.

With --trace 0 all passes run untraced and the last stdout line holds
the end-to-end metrics.  With --trace 1 traced and untraced passes
alternate; the last line holds the per-layer metrics of the traced
passes and the tracing overhead.  The line before it is a JSON report
with the environment and every end-to-end figure, including the ones
that exist only on some workloads.  The exit code is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import check
import workloads
from worker import LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# nominal length of one pass in seconds (2-core x86 box, Python 3.11,
# numpy 2.4); a run makes seconds / this many passes, at least
# MIN_PASSES, so medians have enough passes behind them
PASS_SECONDS = {
    "verify-small": 3.6,
    "verify-highpower": 3.1,
    "census-exact": 3.2,
    "jacobian-check": 3.0,
}
MIN_PASSES = 6
PASS_TIMEOUT_S = 60
# no new pass starts after this, so a slowed-down program still exits
# within the 180 s a run may take
RUN_LIMIT_S = 100

# the end-to-end metrics BENCHMARK.json gates; the other figures exist
# only on some workloads and are printed in the report line
END_TO_END = ("setup_s", "wall_s", "cmd_p50_ms", "cmd_tail_ms", "peak_rss_mib")


def _environment(numpy_version: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "seed": seed,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _git_revision() -> str:
    """HEAD of a .git directory at the checkout root, read as files so
    nothing outside the checkout is consulted."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip("\n").endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(commands: list[dict], trace: bool, spans_path: str) -> dict:
    job = {
        "commands": [{k: c[k] for k in ("kind", "argv", "call") if k in c} for c in commands],
        "trace": trace,
        "spans_path": spans_path,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    started = time.time()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(json.dumps(job), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass exited with code {proc.returncode}")
    result = json.loads(stdout)
    # reference-speed times (see worker.py) next to the raw ones
    result["raw_setup_s"] = result["ready"] - started
    result["setup_s"] = result["raw_setup_s"] * result["setup_factor"]
    for out in result["results"]:
        out["ref_ms"] = out["ms"] * out["factor"]
    result["raw_wall_s"] = sum(out["ms"] for out in result["results"]) / 1e3
    result["wall_s"] = sum(out["ref_ms"] for out in result["results"]) / 1e3
    return result


def _oracle_work(out: dict) -> tuple[int, int, float]:
    """(samples attempted, accepted, min rank gap) from one output.

    Counts come from the report, not from --samples: verify omega
    samples every orbit class whatever --samples says."""
    if "points" in out:
        return out["points"], 0, math.inf
    detail = next((item["value"] for item in (out.get("report") or {}).get("results", [])
                   if item["name"] == "report"), None)
    if not isinstance(detail, dict):
        return 0, 0, math.inf
    gap = detail["min_rank_gap"]
    return detail["samples_requested"], detail["samples_accepted"], float(gap)


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten values beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sl2rep", "cli.py")):
        print("error: src/sl2rep not found; run from the root of an sl2rep checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    commands = workloads.generate(args.workload, args.seed)
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    plain: list[dict] = []
    traced: list[dict] = []
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
    begin = time.perf_counter()
    for index in range(passes):
        with_trace = bool(args.trace) and index % 2 == 1
        (traced if with_trace else plain).append(run_pass(commands, with_trace, spans))
        if index >= 1 and time.perf_counter() - begin > RUN_LIMIT_S:
            break

    attempted = failed = 0
    failures: list[str] = []
    for result in plain + traced:
        for index, (cmd, out) in enumerate(zip(commands, result["results"])):
            if "stdout" in out:
                out["report"] = check.parse_report(out)
            problems = check.check(cmd, out)
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"command {index} {cmd.get('argv') or cmd.get('call')}: {problems}")
    self_test = all(check.check(cmd, check.corrupt(cmd, out))
                    for cmd, out in zip(commands, plain[0]["results"])
                    if not check.check(cmd, out))
    correct = failed == 0 and self_test

    # each command's latency is its median over the passes; p50 and
    # tail are taken over commands, so a burst of machine noise in one
    # pass moves neither
    latencies = [statistics.median(r["results"][i]["ref_ms"] for r in plain)
                 for i in range(len(commands))]
    tail_ms, tail_pct = _tail(latencies)
    work = [_oracle_work(out) for out in plain[0]["results"]]
    samples = sum(w[0] for w in work)
    accepted = sum(w[1] for w in work)
    gaps = [w[2] for w in work if math.isfinite(w[2])]
    wall_s = statistics.median(r["wall_s"] for r in plain)

    figures = {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in plain + traced), "s"),
        "wall_s": _metric(wall_s, "s"),
        "cmd_p50_ms": _metric(statistics.median(latencies), "ms"),
        "cmd_tail_ms": _metric(tail_ms, "ms"),
        "failed_frac": _metric(failed / attempted, "frac"),
        "peak_rss_mib": _metric(statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
    }
    if samples:
        figures["samples_per_s"] = _metric(statistics.median(samples / r["wall_s"] for r in plain), "1/s")
    if accepted:
        figures["accepted_frac"] = _metric(accepted / samples, "frac")
    if gaps:
        figures["min_rank_gap_log10"] = _metric(math.log10(min(gaps)), "log10")
    rel_errs = [out["rel"] for r in plain for out in r["results"] if "rel" in out]
    if rel_errs:
        figures["fd_max_rel_err"] = _metric(max(rel_errs), "rel")

    if args.trace:
        layers = {}
        for name in LAYER_NAMES:
            layers[f"{name}.calls"] = _metric(traced[0]["layers"][name]["calls"], "count")
            layers[f"{name}.self_ms"] = _metric(
                statistics.median(r["layers"][name]["self_ms"] for r in traced), "ms")
        draws = traced[0]["layers"]["matrices.random_sl2"]["calls"]
        layers["oracle.draws_per_sample"] = _metric(draws / samples if samples else 0.0, "draws/sample")
        layers["trace.overhead_frac"] = _metric(
            statistics.median(r["wall_s"] for r in traced) / wall_s - 1, "frac")
        metrics = layers
    else:
        metrics = {name: figures[name] for name in END_TO_END}

    report = {
        "workload": args.workload,
        "raw": {
            "setup_s": statistics.median(r["raw_setup_s"] for r in plain + traced),
            "wall_s": statistics.median(r["raw_wall_s"] for r in plain),
            "pass_wall_s": [r["raw_wall_s"] for r in plain],
        },
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "commands_per_pass": len(commands),
        "tail": {"percentile": round(tail_pct, 2), "commands": len(latencies)},
        "end_to_end": figures,
        "checker_self_test": self_test,
        "failures": failures[:5],
        "environment": _environment(plain[0]["numpy"], args.seed),
    }
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
