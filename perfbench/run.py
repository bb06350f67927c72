"""The abellab benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {center_tables,zero_spaces,cli_mix}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` there.  Each workload is a closed loop: one client in one
process, the next job starting when the previous one ends.  Every job's
output is checked exactly against an independent reference, and the
outputs of the first round go into a SHA-256 digest, so two runs with the
same seed can be compared byte for byte.

``--trace 0`` runs the workload in a fresh interpreter for ``--seconds``
of job time (whole rounds), preceded by fourteen more fresh interpreters
that only set up, and reports the end-to-end metrics:

* ``jobs_per_s``: jobs completed per second of job time;
* ``job_p50_ms`` and ``job_tail_ms``: Harrell-Davis estimates of the
  median and of a fixed percentile per workload (``WORKLOADS``), about the
  highest with at least ten jobs beyond it in a run of the defining commit;
* ``setup_s``: import, input generation and fixture writing in a fresh
  interpreter, the mean of the fastest five of fifteen (``setup_estimate``);
* ``peak_rss_mb``: the workload process's peak resident memory.

Times are scaled to a reference speed measured next to each job (see
``worker.py`` and README.md), because the machine's speed drifts.

``failed_frac`` (failed jobs over attempted jobs) is printed with them and
carried by the ``attempted`` and ``failed`` fields of the result line.

``--trace 1`` runs a fixed number of rounds twice, each in a fresh
interpreter: untraced, then with the wrappers of ``tracing.py`` around
each module's entry points, and reports the per-layer metrics of the
traced pass with the tracing overhead.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the
benchmark ran, whether or not the outputs were correct, and nonzero,
without a result line, when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# tail_pct: the fixed tail percentile; trace_rounds: rounds in a traced run.
WORKLOADS = {
    "center_tables": {"tail_pct": 70, "trace_rounds": 3},
    "zero_spaces": {"tail_pct": 70, "trace_rounds": 1},
    "cli_mix": {"tail_pct": 95, "trace_rounds": 4},
}
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not run."""


class Workers:
    """Fresh-interpreter workers sharing one scratch directory and deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.workdir = ROOT / ".bench_work" / ("%s-%d" % (workload, os.getpid()))
        self.count = 0

    def run(self, *flags):
        self.count += 1
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", str(self.workdir / str(self.count)),
        ] + list(flags)
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("worker %s exceeded the time limit" % " ".join(flags)) from None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        raise BenchError(
            "worker %s exited with %d:\n%s" % (" ".join(flags), proc.returncode, proc.stderr.strip())
        )

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return math.exp(log_front) * (f - 1.0) / a


def quantile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile: a Beta-weighted mean
    of all order statistics.  Each round holds one job of each kind, so the
    nearest-rank percentile would be one kind's few samples; this weights
    the kinds around it and is steadier run to run."""
    xs = sorted(values)
    n = len(xs)
    p = pct / 100
    cdf = [betainc(p * (n + 1), (1 - p) * (n + 1), i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def beyond(n, pct):
    """How many of n jobs lie beyond the pct-th percentile (nearest rank)."""
    return n - max(1, math.ceil(pct / 100 * n))


def setup_estimate(samples):
    """Mean of the fastest third of the set-up times.  Set-up is short, so
    a single stall of the machine moves one sample by half; work added to
    set-up moves every sample, the fastest too."""
    fastest = sorted(samples)[: max(1, len(samples) // 3)]
    return statistics.fmean(fastest)


def end_to_end(workload, run, setup_samples):
    """Metric name -> (value, unit) for an untraced run."""
    lat = run["latencies_ms"]
    return {
        "jobs_per_s": (1000 * len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (quantile(lat, 50), "ms"),
        "job_tail_ms": (quantile(lat, WORKLOADS[workload]["tail_pct"]), "ms"),
        "setup_s": (setup_estimate(setup_samples), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(base, traced):
    """Metric name -> (value, unit) for a traced run and its untraced twin."""
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["field.max_bits"] = (traced["max_bits"], "bits")
    metrics["trace.overhead_frac"] = (sum(traced["latencies_ms"]) / sum(base["latencies_ms"]) - 1, "1")
    return metrics


def environment(backend):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "abellab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def report(args, runs, metrics, extra):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = [
        "workload %s  seed %d  seconds %d  trace %d" % (args.workload, args.seed, args.seconds, args.trace),
        "env %s" % json.dumps(environment(runs[0]["backend"]), sort_keys=True),
        "jobs %d in %d round(s), failed %d, round-0 digest %s"
        % (attempted, sum(r["rounds"] for r in runs), failed, runs[-1]["digest"]),
    ]
    lines += ["error %s" % e for r in runs for e in r["errors"]]
    lines += extra
    lines.append("%-28s %.6g 1" % ("failed_frac", failed / attempted))
    lines += ["%-28s %.6g %s" % (name, value, unit) for name, (value, unit) in sorted(metrics.items())]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="abellab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "abellab" / "__init__.py").is_file():
        print("error: no library source at %s" % (ROOT / "src" / "abellab"), file=sys.stderr)
        return 2

    workers = Workers(args.workload, args.seed)
    try:
        if args.trace:
            rounds = str(WORKLOADS[args.workload]["trace_rounds"])
            base = workers.run("--rounds", rounds)
            traced = workers.run("--rounds", rounds, "--trace")
            runs = [base, traced]
            metrics = per_layer(base, traced)
            extra = ["missing trace targets: %s" % ", ".join(traced["missing"])] if traced["missing"] else []
        else:
            setups = [workers.run("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            run = workers.run("--seconds", str(args.seconds))
            runs = [run]
            metrics = end_to_end(args.workload, run, setups + [run["setup_s"]])
            pct = WORKLOADS[args.workload]["tail_pct"]
            wall = run["wall_latencies_ms"]
            extra = [
                "job_tail_ms is p%d: %d of %d jobs beyond it" % (pct, beyond(len(wall), pct), len(wall)),
                "wall clock: %.6g jobs/s, p50 %.6g ms, p%d %.6g ms; reference work %.4g ms median"
                % (1000 * len(wall) / sum(wall), quantile(wall, 50), pct, quantile(wall, pct),
                   1000 * statistics.median(run["reference_s"])),
            ]
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        workers.close()
    lines, result = report(args, runs, metrics, extra)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
