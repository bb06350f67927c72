"""Acceptance criteria, one test per criterion, printing a pass/fail line each.

Each criterion runs at its stated sample counts and exact (zero) tolerance;
seeds are fixed so the suite is deterministic.  A4iii reports fitted
constants and residual findings without failing on nonzero residuals, as
its contract states.  Every result must also equal, field by field, its
entry in the checked-in ``abellab verify --suite all --json --seed 7``
output (verify_golden.json).
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from abellab import verify
from abellab.linalg import echelon_kernel, kernel_basis, rank, rref, span_rref
from abellab.moments import _combination, _moments_upto
from abellab.poly import Poly

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


def test_a10_enumerates_each_base_s_classes_at_most_twice(monkeypatch):
    # once for the zero-space certificate, once for the kernel's witnesses
    from abellab import decomp, moments

    calls = []
    enumerate_classes = decomp.indecomposable_factors

    def counted(P, iv):
        calls.append(P)
        return enumerate_classes(P, iv)

    for module in (decomp, moments, verify):
        monkeypatch.setattr(module, "indecomposable_factors", counted)
    assert verify.a10_prime_support(SEED).passed
    assert len(calls) <= 20 and max(Counter(calls).values()) <= 2


def _restricted_moment_kernel(P, iv):
    """The reference for A10's kernels, computed without the composition
    span: the endpoint-vanishing polynomials supported on {0,1,2,4,8}, cut
    down by the moment rows i <= 24, accepted only when five more rows add
    no rank."""
    exps = [0, 1, 2, 4, 8]
    endpoint = [[iv.a**e for e in exps], [iv.b**e for e in exps]]
    qbasis = [_combination(v, [Poly.monomial(e) for e in exps]) for v in kernel_basis(endpoint, len(exps))]
    rows = _moments_upto(P, [f.derivative() for f in qbasis], iv, 24 + 5)
    echelon, pivots = rref(rows[:25])
    assert rank(echelon + rows[25:]) == len(pivots), "reference kernel not stabilized"
    return [_combination(v, qbasis) for v in echelon_kernel(echelon, pivots, len(qbasis))]


def _span(polys):
    return span_rref([[f[i] for i in range(9)] for f in polys])


@pytest.mark.parametrize("seed", [0, SEED, 23])
def test_a10_kernels_equal_the_restricted_moment_kernels(seed):
    sizes = []
    for P, iv in verify._ur_samples(seed):
        kernel = verify._ur_kernel(P, iv)
        assert _span(kernel) == _span(_restricted_moment_kernel(P, iv))
        sizes.append(len(kernel))
    assert len(sizes) == 10 and any(sizes)
