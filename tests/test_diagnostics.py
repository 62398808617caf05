import json
import math
import re

import numpy as np
import pytest

from dfindex import cli, diagnostics, jets
from dfindex.diagnostics import (
    CheckRecord,
    boundary_suite,
    jets_suite,
    riccati_suite,
)
from dfindex.geometry import MetricError, MetricField, chern_frame


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


def test_nonhermitian_metric_matrix_names_the_first_bad_point():
    def fn(zs):
        one, zero = (jets.Jet.constant(v, 4, zs[0].order) for v in (1.0, 0.0))
        # g_01 = 0.05 Re z1 against g_10 = 0: Hermitian only where Re z1 = 0
        return [[one, zs[0].real() * 0.05], [zero, one]]

    skewed = MetricField(2, fn, name="skewed")
    points = np.array([[0.0, 0.0], [0.5, 0.2j], [1.0, 0.0]], dtype=complex)
    assert np.array_equal(skewed.matrix(points[0]), np.eye(2))
    for z in (points[1], points):
        with pytest.raises(MetricError, match=re.escape(f"metric 'skewed' not Hermitian at {points[1]}")):
            skewed.matrix(z)


def test_nan_entry_is_not_hermitian_at_a_chart_point():
    def fn(zs):
        one, zero, nan = (jets.Jet.constant(v, 4, zs[0].order) for v in (1.0, 0.0, math.nan))
        return [[one, nan], [zero, one]]     # g_01 = NaN against g_10 = 0

    skewed = MetricField(2, fn, name="skewed")
    # a point with a NaN coordinate is off the chart: its NaN values pass through
    points = np.array([[np.nan, 0.0], [0.5, 0.0], [0.0, 0.3j]], dtype=complex)
    assert np.isnan(skewed.matrix(points[0])[0, 1])
    message = re.escape(f"metric 'skewed' not Hermitian at {points[1]}")
    for z in (points[1], points):
        for evaluate in (skewed.matrix, lambda z: chern_frame(skewed, z)):
            with pytest.raises(MetricError, match=message):
                evaluate(z)


def test_selftest_command_exits_1_on_a_failing_check(tmp_path, monkeypatch):
    assert cli.main(["selftest", "--out", str(tmp_path / "pass")]) == 0
    summary = json.loads((tmp_path / "pass" / "selftest.json").read_text())["summary"]
    assert summary["passed"] and summary["n_checks"] == 45
    failing = CheckRecord(suite="injected", name="always_fails", passed=False, residual=1.0, tol=0.0)
    monkeypatch.setattr(diagnostics, "run_all", lambda: [failing])
    assert cli.main(["selftest", "--out", str(tmp_path / "fail")]) == 1
    summary = json.loads((tmp_path / "fail" / "selftest.json").read_text())["summary"]
    assert summary["failed"] == ["injected/always_fails"] and not summary["passed"]


def test_nan_residual_fails_its_check(monkeypatch):
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
    real = diagnostics.curvature

    def with_anti_hermitian_part(frame, x, y, v):
        # adds i 1e-3 times the identity, an anti-Hermitian endomorphism
        return real(frame, x, y, v) + 1e-3j * v

    monkeypatch.setattr(diagnostics, "curvature", with_anti_hermitian_part)
    records = {r.name: r for r in diagnostics.structural_suite(count=3)}
    assert not records["curvature_contraction_real"].passed
    failed = [f"{r.suite}/{r.name}" for r in diagnostics.run_all() if not r.passed]
    assert "structural/curvature_contraction_real" in failed
