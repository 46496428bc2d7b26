"""natalg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round is a fresh, single-threaded interpreter (bench/worker.py) that
imports natalg.cli, builds the workload's seeded job list, times each call
into natalg and checks each result outside the timed region.  Rounds repeat
until S seconds are used (at least three); extra set-up-only interpreters
are started between rounds so that set-up time is a median of many.

--trace 0 prints the end-to-end metrics:
  setup_s      spawn to natalg.cli and its imports loaded (median)
  wall_s       time of the job list: the sum over jobs of each job's
               median latency across rounds
  jobs_per_s   jobs in the list over wall_s
  job_p50_ms   median of the per-job latencies
  job_p99_ms   99th percentile of the per-job latencies (lists hold at
               least 1000 jobs, so ten or more lie beyond it)
  peak_rss_mb  peak resident memory of a round's process (median)
  ok_frac      jobs that passed their check over jobs attempted
failed_frac (= 1 - ok_frac) is printed too; it stays out of the JSON metrics
because it is 0 on the cold workloads.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of bench/layertrace.py.

Times are calibrated against a fixed burst of pure-Python work timed
alongside (see bench/worker.py), which removes the machine's contention
phases.

Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  A result file with the
run's metadata goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 6
HARD_STOP_S = 110  # start no new round after this, whatever --seconds says
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
    "job_p99_ms": "ms", "peak_rss_mb": "MiB", "ok_frac": "ratio",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(mode: str, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = clock()
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, workload, str(seed), str(OUT)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready"] - started) * result["setup_scale"]
    return result


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "commit": git_commit(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(), "machine": platform.machine(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def measure(args) -> tuple[dict, list[dict], list[float]]:
    """Untraced rounds and set-up samples until the time budget is used."""
    start = clock()
    rounds: list[dict] = []
    setups: list[float] = []
    while True:
        setups += [spawn("setup", args.workload, args.seed)["setup_s"] for _ in range(SETUPS_PER_ROUND)]
        rounds.append(spawn("run", args.workload, args.seed))
        setups.append(rounds[-1]["setup_s"])
        elapsed = clock() - start
        if len(rounds) >= MIN_ROUNDS and (elapsed * (1 + 1 / len(rounds)) > args.seconds or elapsed > HARD_STOP_S):
            break
    lat = job_latencies(rounds)
    q = statistics.quantiles(lat, n=100, method="inclusive")
    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": q[49] * 1e3,
        "job_p99_ms": q[98] * 1e3,
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in rounds),
        "ok_frac": 1 - failed / attempted,
    }
    extra = {"failed_frac": failed / attempted, "jobs_beyond_p99": sum(x > q[98] for x in lat),
             "setup_samples": len(setups), "rounds": len(rounds)}
    return metrics | extra, rounds, setups


def job_latencies(rounds: list[dict]) -> list[float]:
    """Each job's median calibrated latency over the rounds.  Every round
    runs the same seeded job list in a fresh process, so job i does the same
    work in each."""
    return [statistics.median(x) for x in zip(*(r["lat"] for r in rounds))]


def measure_traced(args) -> tuple[dict, list[dict]]:
    """Pairs of an untraced and a traced round until the budget is used."""
    start = clock()
    pairs: list[tuple[dict, dict]] = []
    while True:
        pairs.append((spawn("run", args.workload, args.seed), spawn("trace", args.workload, args.seed)))
        elapsed = clock() - start
        if elapsed * (1 + 1 / len(pairs)) > args.seconds or elapsed > HARD_STOP_S:
            break
    layers = {name: statistics.median(t["layers"][name] for _, t in pairs)
              for name in pairs[0][1]["layers"]}
    layers["trace.wall_s"] = sum(job_latencies([t for _, t in pairs]))
    layers["trace.untraced_wall_s"] = sum(job_latencies([u for u, _ in pairs]))
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    return {name: layers[name] for name in metric_names()}, [r for pair in pairs for r in pair]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "natalg" / "cli.py").is_file():
        print(f"error: no natalg sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            metrics, rounds = measure_traced(args)
            units = {name: ("s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count")
                     for name in metrics}
            reported, extra = metrics, {}
        else:
            metrics, rounds, setups = measure(args)
            units = dict(END_TO_END, failed_frac="ratio")
            reported = {name: metrics[name] for name in END_TO_END}
            extra = {"setup_samples_s": setups}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    unexpected = [u for r in rounds for u in r["unexpected"]]
    correct = not unexpected

    print(f"# natalg benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} jobs={attempted} failed={failed} (known defects: "
          f"{sum(r['known_defects'] for r in rounds)}) correct={correct}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units.get(name, '')}")
    for line in unexpected[:10]:
        print(f"# unexpected failure: {line}")

    record = {
        "meta": metadata(args), "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "units": units, "unexpected": unexpected[:50],
        "rounds": [{"wall_s": r["wall"], "jobs": r["jobs"], "failed": r["failed"], "rss_kb": r["rss_kb"],
                    "setup_s": r["setup_s"], "by_kind": r["by_kind"]} for r in rounds],
        **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
