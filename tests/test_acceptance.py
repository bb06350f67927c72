"""Acceptance criteria, one test per criterion, printing a pass/fail line each.

Each criterion runs at its stated sample counts and exact (zero) tolerance;
seeds are fixed so the suite is deterministic.  A4iii reports fitted
constants and residual findings without failing on nonzero residuals, as
its contract states.  Every result must also equal, field by field, its
entry in the checked-in ``abellab verify --suite all --json --seed 7``
output (verify_golden.json).
"""

import json
from pathlib import Path

from abellab import verify

SEED = 7
GOLDEN = {
    c["id"]: c
    for c in json.loads(Path(__file__).with_name("verify_golden.json").read_text())["criteria"]
}


def _run(runner):
    results = runner(SEED)
    if isinstance(results, verify.CriterionResult):
        results = [results]
    for res in results:
        print(res.format_line())
        for line in res.details:
            print("    %s" % line)
        for f in res.findings:
            print("    finding: %s" % f)
    assert all(r.passed for r in results), "; ".join(
        r.cid for r in results if not r.passed
    )
    for res in results:
        got = {"id": res.cid, "title": res.title, "passed": res.passed, "details": res.details, "findings": res.findings}
        assert got == GOLDEN[res.cid]
    return results


def test_all_runs_every_suite_in_criterion_order():
    names = [fn.__name__.split("_")[0] for fn in verify.SUITES["all"]]
    assert names == ["a%d" % i for i in range(1, 11)]
    for suite in verify.SUITES.values():
        assert set(suite) <= set(verify.SUITES["all"])
    assert sorted(GOLDEN) == sorted(
        ["A1", "A2", "A3", "A4i", "A4ii", "A4iii", "A5a", "A5b", "A5c", "A6", "A7", "A8", "A9", "A10"]
    )


def test_a1_stratification_support():
    _run(verify.a1_stratification)


def test_a2_moment_column_laws():
    _run(verify.a2_moment_columns)


def test_a3_tabulated_series_match():
    results = _run(lambda s: [verify.a3_series_match(s)])
    # the backward/h1=q convention is the one that matches, uniquely
    convline = [d for d in results[0].details if "convention" in d][0]
    assert "backward/h1=q=50" in convline
    assert "forward/h1=q=0" in convline


def test_a4_melnikov():
    results = _run(verify.a4_melnikov)
    ids = [r.cid for r in results]
    assert ids == ["A4i", "A4ii", "A4iii"]
    # the mandatory halves must be green; the fit half reports findings
    assert results[0].passed and results[1].passed


def test_a5_zero_spaces():
    results = _run(verify.a5_zero_space)
    assert [r.cid for r in results] == ["A5a", "A5b", "A5c"]


def test_a6_factor_enumeration():
    _run(verify.a6_factors)


def test_a7_composition_checker():
    _run(verify.a7_cc)


def test_a8_trig_family():
    results = _run(lambda s: [verify.a8_trig_family(s)])
    identity = [d for d in results[0].details if "cubic identity" in d][0]
    assert "(3/4)*alpha^3" in identity and "(-9/4)*alpha*beta^2" in identity


def test_a9_modified_family_linearity():
    _run(verify.a9_modified_family)


def test_a10_prime_support_definiteness():
    _run(verify.a10_prime_support)
