"""Self-check of the benchmark harness; not part of the measured runs.

    python3 bench/check_harness.py

1. A job fed a deliberately wrong result is counted as failed and as an
   unexpected failure, so run.py would report correct=false and a lower
   ok_frac (a higher failed_frac).
2. In a session-warm round the failed jobs are exactly the known-defect
   queries (Witt vectors with a leading minus).
3. A traced round reports every per-layer metric; cli.errors counts the
   argparse exits; the layer self times leave little unattributed.
4. run.py exits non-zero, printing no result, in a directory that holds
   only BENCHMARK.json and bench/.
Exits 0 when every check holds.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402  (imports natalg.cli)
from layertrace import LAYERS, Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402


def modules():
    return types.SimpleNamespace(**{layer: sys.modules[f"natalg.{layer}"] for layer in LAYERS})


def session_prefix(n: int, seed: int = 1) -> list[Job]:
    return WORKLOADS["session-warm"](random.Random(seed), modules())[:n]


def check(label: str, ok: bool) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def main() -> int:
    results = []

    jobs = session_prefix(40)
    defects = sum(j.known_defect for j in jobs)
    victim = next(i for i, j in enumerate(jobs) if not j.known_defect)
    jobs[victim] = jobs[victim]._replace(call=lambda: (0, "deliberately wrong\n"))
    WORKLOADS["tampered"] = lambda rng, na: jobs
    r = worker.run_round("tampered", 1, None)
    results.append(check(f"wrong result counted: failed={r['failed']} = {defects} defects + 1, "
                         f"unexpected={len(r['unexpected'])}",
                         r["failed"] == defects + 1 and len(r["unexpected"]) == 1))

    r = worker.run_round("session-warm", 1, None)
    results.append(check(f"session-warm failures are the leading-minus queries: failed={r['failed']}, "
                         f"known defects={r['known_defects']}, share={r['failed'] / r['jobs']:.4f}",
                         r["failed"] == r["known_defects"] and not r["unexpected"]))

    tracer = Tracer()
    tracer.install()  # before the jobs are built, as in worker.py, so they call the wrappers
    jobs = session_prefix(300, seed=2)
    WORKLOADS["traced"] = lambda rng, na: jobs
    r = worker.run_round("traced", 2, tracer)
    layers = tracer.summary(r["wall"], r["wall"] / r["timed_s"])
    missing = set(metric_names()) - set(layers) - {"trace.untraced_wall_s", "trace.overhead_s"}
    results.append(check(f"traced round reports every per-layer metric (missing: {sorted(missing)})", not missing))
    results.append(check(f"cli.errors={layers['cli.errors']} = known defects {r['known_defects']}",
                         layers["cli.errors"] == r["known_defects"]))
    share = layers["trace.unattributed_s"] / layers["trace.wall_s"]
    results.append(check(f"layer self times cover the traced wall time: unattributed share {share:.4f}",
                         0 <= share < 0.05))

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "session-warm", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    results.append(check(f"run.py without the program exits {proc.returncode} and prints no result",
                         proc.returncode != 0 and not proc.stdout.strip()))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
