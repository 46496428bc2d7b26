"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 bench/spread.py --workloads convolution-cold,session-warm \\
        --seeds 1-10 --seconds 30 [--trace 1] [--out FILE]

For every workload and metric: the median of the per-seed values, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
--out the summary, with every per-seed value and the run metadata (Python,
commit, nproc, platform), is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            runs.append({"seed": seed, "meta": record["meta"], **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == 0 or k.startswith("trace.")), flush=True)
        metrics: dict = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name),
                             "values": values}
        meta = {k: v for k, v in runs[0]["meta"].items() if k not in ("seed", "utc")}
        summary[workload] = {"meta": meta, "utc": [r["meta"]["utc"] for r in runs],
                             "seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                             "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                             "metrics": metrics}
        print(f"\n{workload}: {'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, m in metrics.items():
            flag = "" if m["bound"] is None else (" OVER BOUND" if m["spread"] > m["bound"] else
                                                  " over bound/3" if m["spread"] > m["bound"] / 3 else "")
            bound = "" if m["bound"] is None else f"{m['bound']:.2f}"
            print(f"{'':{len(workload) + 2}s}{name:32s} {m['median']:12.6g} {m['spread']:8.4f} {bound:>6s}{flag}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
