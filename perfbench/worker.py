"""Run one workload in this (fresh) interpreter and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        (--seconds S | --rounds R | --setup-only) [--trace]

Set-up is timed from the top of this file, before ``abellab`` is imported,
to the end of generating the first round of inputs (and writing its
fixture files), and scaled to the reference speed like the jobs.  The timed phase then runs whole rounds of jobs: until the
jobs' summed run time reaches ``--seconds``, or for exactly ``--rounds``
rounds.  Only ``Job.run`` is timed; checks and the generation of later
rounds are not.  ``--trace`` loads the wrappers in ``tracing.py``; without
it they are never imported.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC)]

from gen import max_bits, pmul  # noqa: E402


# A fixed piece of pure-Python exact arithmetic, with the same instruction
# mix as the library's hot path (Fraction products summed into lists).
_REF_A = [Fraction(7 * i + 1, 3 + i) for i in range(24)]
_REF_B = [Fraction(5 - 2 * i, 1 + i % 4) for i in range(24)]
# Its time at the reference speed, about its median on the 2-core Xeon
# virtual machine the bounds in BENCHMARK.json were set on.
REFERENCE_S = 0.011
# Job time between two runs of the reference work.
CALIBRATE_EVERY_NS = 200_000_000


def reference_seconds():
    t0 = time.perf_counter()
    x = _REF_A
    for _ in range(3):
        x = pmul(x, _REF_B)[:24]
    return time.perf_counter() - t0


class Result:
    def __init__(self):
        self.latencies_ns = []
        self.calibrations = []
        self.job_calibration = []  # index of the last calibration before each job
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rounds = 0
        self.max_bits = 0
        self.digest = hashlib.sha256()

    def fail(self, key, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %s" % (key, message))

    def normalized_ms(self):
        """Each job's time at the reference speed: its wall time scaled by
        REFERENCE_S over the mean of the reference runs just before and
        just after it."""
        c = self.calibrations
        return [
            ns / 1e6 * REFERENCE_S * 2 / (c[k] + c[k + 1])
            for ns, k in zip(self.latencies_ns, self.job_calibration)
        ]

    def as_json(self):
        return {
            "latencies_ms": self.normalized_ms(),
            "wall_latencies_ms": [ns / 1e6 for ns in self.latencies_ns],
            "reference_s": self.calibrations,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "rounds": self.rounds,
            "max_bits": self.max_bits,
            "digest": self.digest.hexdigest(),
        }


def measure(wl, seed, workdir, jobs, seconds=0.0, rounds=None, tracer=None):
    """Run whole rounds of jobs, starting with ``jobs`` (round 0).

    The reference work runs before the first job, after every
    CALIBRATE_EVERY_NS of job time and after the last job.  The digest
    covers round 0, which every run completes.
    """
    res = Result()
    res.calibrations.append(reference_seconds())
    since = 0
    r = 0
    while jobs:
        seen = {}
        for job in jobs:
            if since >= CALIBRATE_EVERY_NS:
                res.calibrations.append(reference_seconds())
                since = 0
            res.job_calibration.append(len(res.calibrations) - 1)
            res.attempted += 1
            error = None
            t0 = time.perf_counter_ns()
            try:
                out = job.run() if tracer is None else tracer.run_job(job.run)
            except Exception as exc:  # a failed job is counted, the run goes on
                error = "".join(traceback.format_exception_only(exc)).strip()
            res.latencies_ns.append(time.perf_counter_ns() - t0)
            since += res.latencies_ns[-1]
            if error is not None:
                res.fail(job.key, error)
                continue
            try:
                text = job.check(out, seen)
            except Exception as exc:  # CheckFailed, or output of the wrong shape
                res.fail(job.key, "check failed: %r" % exc)
                continue
            if r == 0:
                res.digest.update(("%s\n%s\n" % (job.key, text)).encode())
            res.max_bits = max(res.max_bits, max_bits(text))
        else:
            r += 1
            res.rounds = r
            done = r >= rounds if rounds is not None else sum(res.latencies_ns) >= seconds * 1e9
            jobs = None if done else wl.make_round(seed, r, workdir)
    res.calibrations.append(reference_seconds())
    return res


def backend():
    """The rational type behind ``Scalar``, e.g. ``fractions.Fraction``."""
    from abellab.field import Scalar

    kind = type(getattr(Scalar(1), "rat", None))
    return "%s.%s" % (kind.__module__, kind.__name__)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    wl = importlib.import_module(args.workload)
    import abellab

    if Path(abellab.__file__).resolve().parent != SRC / "abellab":
        raise SystemExit("abellab was imported from %s, not %s" % (abellab.__file__, SRC))
    args.workdir.mkdir(parents=True, exist_ok=True)
    jobs = wl.make_round(args.seed, 0, args.workdir)
    setup = time.perf_counter() - _T0
    # at the reference speed, like the jobs
    setup *= REFERENCE_S * 2 / (reference_seconds() + reference_seconds())
    out = {"setup_s": setup, "backend": backend()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        res = measure(wl, args.seed, args.workdir, jobs, args.seconds, args.rounds, tracer)
        out.update(res.as_json())
        if tracer is not None:
            summary = tracer.summary()
            out["layers"] = summary.metrics()
            out["missing"] = sorted(summary.missing)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
