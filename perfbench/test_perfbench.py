"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root.

They run single cheap jobs in-process, plus one short run of the real
command, so they take seconds rather than the benchmark's minutes.
"""

import argparse
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
from abellab.field import ONE, ZERO  # noqa: E402
from abellab.poly import Poly  # noqa: E402
from gen import Job  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# one cheap job per workload, picked by the end of its key
CHEAP = {"center_tables": ".4", "zero_spaces": "cheb6", "cli_mix": "definite"}


def measured(name, tmp_path, seed=0, key_end=None, tamper=None, tracer=None):
    """One round of the single job whose key ends in ``key_end``;
    ``tamper(key, output)`` alters its output before the check."""
    wl = importlib.import_module(name)
    (job,) = [j for j in wl.make_round(seed, 0, tmp_path) if j.key.endswith(key_end or CHEAP[name])]
    if tamper is not None:
        job = Job(job.key, lambda run=job.run: tamper(job.key, run()), job.check)
    res = worker.measure(wl, seed, tmp_path, [job], rounds=1, tracer=tracer)
    return dict(res.as_json(), peak_rss_mb=1.0, backend="test")


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_appears_with_its_unit(name, tmp_path):
    base = measured(name, tmp_path)
    tracer = Tracer()
    traced = measured(name, tmp_path, tracer=tracer)
    summary = tracer.summary()
    traced.update(layers=summary.metrics(), missing=sorted(summary.missing))
    assert base["failed"] == traced["failed"] == 0
    assert traced["missing"] == []
    want_e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert units(run.end_to_end(name, base, [0.1])) == want_e2e
    want_layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(run.per_layer(base, traced)) == want_layers


def test_command_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_mix", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert not (HERE.parent / ".bench_work").exists()


def _corrupt_table(key, tables):
    first = tables[0]
    entries = dict(first.entries)
    entries[(4, 1)] = entries.get((4, 1), ZERO) + ONE
    return [dataclasses.replace(first, entries=entries)] + tables[1:]


def _corrupt_cli(key, result):
    code, text, err = result
    return code, text[: len(text) // 2], err


def _corrupt_space(key, spaces):
    # drop every basis element's top coefficient in both spaces alike, so
    # only the check against the independently built Z(P) can see it
    return tuple([Poly([f[i] for i in range(f.degree)]) for f in basis] for basis in spaces)


@pytest.mark.parametrize(
    "name, tamper",
    [("center_tables", _corrupt_table), ("zero_spaces", _corrupt_space), ("cli_mix", _corrupt_cli)],
)
def test_corrupted_result_is_counted_as_failed(name, tamper, tmp_path):
    res = measured(name, tmp_path, tamper=tamper)
    assert (res["attempted"], res["failed"]) == (1, 1)
    args = argparse.Namespace(workload=name, seed=0, seconds=1, trace=0)
    lines, result = run.report(args, [res], {}, [])
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.split() == ["failed_frac", "1", "1"] for line in lines)


def test_same_seed_same_digest(tmp_path):
    # the pair of degrees (6, 2): cheap, and its tables are not all zero
    first = measured("center_tables", tmp_path / "a", seed=5, key_end=".0")
    again = measured("center_tables", tmp_path / "b", seed=5, key_end=".0")
    other = measured("center_tables", tmp_path / "c", seed=6, key_end=".0")
    assert first["digest"] == again["digest"] != other["digest"]


def test_aliases_and_imported_names_are_wrapped_then_restored():
    import abellab.decomp as decomp
    import abellab.poly as poly

    mul = poly.Poly.__dict__["__mul__"]
    tracer = Tracer()

    def job():
        3 * poly.Poly([1, 2])  # reaches Poly.__rmul__, an alias of __mul__
        decomp.in_subring(poly.Poly([0, 0, 1]), poly.Poly([0, 1]))  # imported by name

    tracer.run_job(job)
    metrics = tracer.summary().metrics()
    assert metrics["poly.mul_calls"] == (1, "count")
    assert metrics["decomp.in_subring_calls"] == (1, "count")
    assert poly.Poly.__dict__["__rmul__"] is mul and decomp.in_subring is poly.in_subring


def test_renamed_stage_is_missing_not_zero(monkeypatch):
    import abellab.center as center

    monkeypatch.delattr(center, "_revert")
    tracer = Tracer()
    assert "center.revert" in tracer.missing
    metrics = tracer.summary().metrics()
    assert "center.revert_s" not in metrics and "center.flow_s" in metrics
