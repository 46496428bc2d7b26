"""One fresh interpreter running one workload round, started by run.py.

    python3 bench/worker.py {setup|run|trace} WORKLOAD SEED OUTDIR

natalg.cli is imported first, so the monotonic timestamp taken right after it
marks the end of set-up; run.py took the spawn time on the same clock.
`setup` stops there.  `run` times every job of the workload's list; `trace`
does the same with the layer tracer installed and writes the spans to
OUTDIR.  Prints one JSON object on stdout.

Calibration.  On a shared machine, pure-Python code runs up to twice as slow
for phases of seconds to minutes (CPU time included, so it is contention for
the core, not descheduling).  A fixed burst of Fraction and dict work is
timed right after set-up and then every CALIBRATE_EVERY_S of the round,
from an interval-timer signal handler, so that long jobs are sampled while
they run; the handler's own time is taken out of the job it interrupted.
A job's time is multiplied by the mean of REFERENCE_BURST_S / burst time over
the bursts inside it (the median of the nearest ones for a short job), and
set-up time by REFERENCE_BURST_S / (burst time right after it), so times read
as they would in an uncontended phase.  The ratio of job time to burst time
stays within a few per cent while raw times swing by 2x.
"""

import time

import natalg.cli  # noqa: F401  (set-up ends once this and its imports are loaded)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

from fractions import Fraction  # noqa: E402

# the burst's time in an uncontended phase on an Intel Xeon 2.0 GHz vCPU,
# Python 3.11; it sets the scale in which every time is reported
REFERENCE_BURST_S = 0.0007
CALIBRATE_EVERY_S = 0.05


def burst() -> float:
    """Time a fixed piece of pure-Python work like natalg's own."""
    t0 = time.perf_counter()
    acc, tally = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        tally[i % 13] = tally.get(i % 13, 0) + i
    return time.perf_counter() - t0


SETUP_BURST = sorted(burst() for _ in range(3))[1]

import bisect  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Calibration:
    """Bursts timed on a SIGALRM interval timer while a round runs."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each burst's end
        self.took: list[float] = []
        self.stolen = 0.0  # total time spent in bursts

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.took.append(burst())
        self.at.append(time.perf_counter())
        self.stolen += self.at[-1] - t0

    def __enter__(self):
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_BURST_S over the machine's burst time while [t0, t1] ran."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        if hi - lo >= 3:
            return statistics.fmean(REFERENCE_BURST_S / x for x in self.took[lo:hi])
        return REFERENCE_BURST_S / statistics.median(self.took[max(lo - 2, 0):hi + 2])


def run_round(workload: str, seed: int, tracer: Tracer | None) -> dict:
    na = types.SimpleNamespace(**{layer: sys.modules[f"natalg.{layer}"] for layer in LAYERS})
    jobs = WORKLOADS[workload](random.Random(seed), na)
    clock = time.perf_counter
    raw: list[float] = []
    spans: list[tuple[float, float]] = []
    failed = defects = 0
    unexpected: list[str] = []
    with Calibration() as cal:
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job, tracer.active = i, True
            stolen = cal.stolen
            t0 = clock()
            try:
                result, raised = job.call(), None
            except Exception as exc:  # a job that raises is a failed job, not a crash
                result, raised = None, exc
            t1 = clock()
            if tracer:
                tracer.active = False
            raw.append(t1 - t0 - (cal.stolen - stolen))
            spans.append((t0, t1))
            defects += job.known_defect
            try:
                ok = raised is None and bool(job.check(result))
            except Exception:  # a result the check cannot read is wrong
                ok = False
            if not ok:
                failed += 1
                if not job.known_defect:
                    unexpected.append(f"job {i} {job.kind}: {raised!r}" if raised else f"job {i} {job.kind}: wrong result")
    lat = [t * cal.scale(t0, t1) for t, (t0, t1) in zip(raw, spans)]
    by_kind: dict[str, list] = {}
    for job, t in zip(jobs, lat):
        stats = by_kind.setdefault(job.kind, [0, 0.0])
        stats[0] += 1
        stats[1] += t
    # timed_s still holds the bursts that interrupted jobs; spans hold them too
    return {"wall": sum(lat), "lat": lat, "timed_s": sum(t1 - t0 for t0, t1 in spans),
            "jobs": len(jobs), "failed": failed, "known_defects": defects, "unexpected": unexpected,
            "by_kind": by_kind}


def main(argv: list[str]) -> int:
    mode, workload, seed, outdir = argv[1], argv[2], int(argv[3]), Path(argv[4])
    out: dict = {"ready": READY, "setup_scale": REFERENCE_BURST_S / SETUP_BURST}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        out.update(run_round(workload, seed, tracer))
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            out["layers"] = tracer.summary(out["wall"], out["wall"] / out["timed_s"])
            tracer.write_spans(outdir / f"{workload}-seed{seed}.spans.jsonl.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
