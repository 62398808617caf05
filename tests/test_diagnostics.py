import math

from dfindex.diagnostics import (
    _corrupted_metric_check,
    boundary_suite,
    jets_suite,
    riccati_suite,
)


def test_jets_suite_deterministic_pass_pattern():
    a = jets_suite(count=20, seed=3)
    b = jets_suite(count=20, seed=3)
    assert [(r.suite, r.name, r.passed, r.residual) for r in a] == \
           [(r.suite, r.name, r.passed, r.residual) for r in b]
    assert all(r.passed for r in a)


def test_boundary_suite_passes():
    records = {rec.name: rec for rec in boundary_suite(samples=6)}
    for rec in records.values():
        assert rec.passed, f"{rec.name}: {rec.residual} > {rec.tol}"
    # the null-space identity is checked on null directions, not on an empty set
    detail = records["null_space_identity"].detail
    assert detail.startswith("null pairs checked: ") and int(detail.split(": ")[1]) > 0


def test_riccati_suite_passes():
    for rec in riccati_suite():
        assert rec.passed, rec.name


def test_injected_nonhermitian_metric_fails_invariant():
    records = _corrupted_metric_check()
    assert len(records) == 1
    assert not records[0].passed
    assert "rejected" in records[0].detail


def test_nan_residual_fails_its_check(monkeypatch):
    from dfindex import diagnostics

    real = diagnostics.vectorfield_margin
    calls = []

    def nan_once(*args, **kwargs):
        calls.append(1)
        return math.nan if len(calls) == 2 else real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "vectorfield_margin", nan_once)
    (record,) = diagnostics.margin_equivalence_suite(count=2)
    assert math.isnan(record.residual)
    assert not record.passed


def test_curvature_contraction_that_is_not_real_fails_its_check(monkeypatch):
    from dfindex import diagnostics

    real = diagnostics.curvature

    def with_anti_hermitian_part(frame, x, y, v):
        # adds i 1e-3 times the identity, an anti-Hermitian endomorphism
        return real(frame, x, y, v) + 1e-3j * v

    monkeypatch.setattr(diagnostics, "curvature", with_anti_hermitian_part)
    records = {r.name: r for r in diagnostics.structural_suite(count=3)}
    assert not records["curvature_contraction_real"].passed
    failed = [f"{r.suite}/{r.name}" for r in diagnostics.run_all() if not r.passed]
    assert "structural/curvature_contraction_real" in failed
