import math

import numpy as np
import pytest

from dfindex import jets
from dfindex.diagnostics import (
    h3_identity_suite,
    random_metric,
    random_scalar_field,
    structural_suite,
)
from dfindex.fields import ScalarField, wirtinger_table
from dfindex.geometry import (
    CTVector,
    MetricField,
    VectorField,
    chern_frame,
    covariant_derivative,
    curvature,
    curvature_contraction,
    h3_op,
    h3_tensor,
    hess_op,
    hess_tensor,
    inner,
    kahler_defect,
    metric_compat_residual,
    torsion,
)
from dfindex.worm import s_gamma_reference


def test_euclidean_christoffels_vanish():
    metric = MetricField.euclidean(2)
    gamma = chern_frame(metric, np.array([0.3 + 0.1j, -0.7 + 0.2j]), order=1).gamma
    assert np.max(np.abs(gamma)) == 0.0


def test_conformal_metric_christoffels():
    # g = e^u * delta gives Gamma^i_{jk} = delta^i_k du/dz_j
    u = ScalarField(2, lambda zs: zs[0].real() * 0.7 + jets.sin(zs[1].imag()) * 0.3)
    metric = MetricField.conformal(2, u)
    z = np.array([0.4 - 0.2j, 0.1 + 0.5j])
    gamma = chern_frame(metric, z, order=1).gamma
    du = wirtinger_table(u.jet(z, 1), 2).w1[:2]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected = du[j] if i == k else 0.0
                assert gamma[i, j, k] == pytest.approx(expected, abs=1e-12)


def test_metric_compatibility_residual(worm_kahler):
    z = np.array([0.3 + 0.2j, 1.1 + 0.4j])
    assert metric_compat_residual(worm_kahler.metric, z) < 1e-10


def test_worm_metric_is_kahler(worm_kahler):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.2, 1.2)
        z = np.array([0.8 * np.exp(1j * rng.uniform(0, 6.28)),
                      math.exp(x / 2) * np.exp(1j * rng.uniform(0, 6.28))])
        worst = max(worst, kahler_defect(worm_kahler.metric, z))
    assert worst < 1e-8


def test_kahler_defect_of_a_batch_is_the_largest_one_point_defect(rng):
    metric = random_metric(2, rng)
    z = 0.3 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    defects = [kahler_defect(metric, p) for p in z]
    assert min(defects) > 0.0
    assert kahler_defect(metric, z) == max(defects)
    # a NaN row gives NaN, also after finite rows
    z[3, 1] = np.nan
    assert math.isnan(kahler_defect(metric, z))


def test_torsion_trivial_cases(worm_kahler):
    metric = MetricField.euclidean(2)
    z = np.array([0.2 + 0.1j, 0.5 - 0.3j])
    X = CTVector.holo([1.0, 2.0j])
    Y = CTVector.real_vector([0.3, -0.2 + 0.4j])
    assert np.max(np.abs(torsion(chern_frame(metric, z, order=1), X, Y).coeffs)) == 0.0
    # mixed-type inputs annihilate torsion for any metric
    zq = np.array([0.3 + 0.2j, 1.1 + 0.4j])
    Z = CTVector.holo([0.7, -0.1j])
    W = CTVector.anti([0.2 - 0.5j, 1.0])
    fr = chern_frame(worm_kahler.metric, zq, order=1)
    assert np.max(np.abs(torsion(fr, Z, W).coeffs)) < 1e-10


def test_torsion_matches_christoffel_antisymmetrization(rng):
    metric = random_metric(2, rng)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    fr = chern_frame(metric, z, order=1)
    d1 = CTVector.holo([1.0, 0.0])
    d2 = CTVector.holo([0.0, 1.0])
    t = torsion(fr, d1, d2)
    expected = fr.gamma[:, 0, 1] - fr.gamma[:, 1, 0]
    np.testing.assert_allclose(t.h, expected, atol=1e-13)


def test_curvature_euclidean_zero_and_worm_closed_form(worm_kahler):
    metric = MetricField.euclidean(2)
    z = np.array([0.2 + 0.1j, 0.5 - 0.3j])
    Z = CTVector.holo([1.0, 0.5j])
    V = CTVector.holo([0.2, 1.0])
    rv = curvature(chern_frame(metric, z, order=2), Z, Z.conj(), V)
    assert np.max(np.abs(rv.coeffs)) == 0.0

    wp = worm_kahler.params["worm"]
    from dfindex.boundary import normal_frame

    for z2 in (1.0, math.exp(0.4 / 2) * np.exp(0.9j)):
        ref = s_gamma_reference(wp, z2)
        P = np.array([0.0, z2], dtype=complex)
        fr = normal_frame(worm_kahler, P)
        Zt = CTVector.holo([0.0, 1.0])
        rv = curvature(fr.chern, Zt, Zt.conj(), fr.L)
        factor = rv.h[0] / fr.L.h[0]
        assert factor == pytest.approx(2.0 / wp.t / math.cos(ref.x / wp.t) ** 2 / abs(z2) ** 2,
                                       rel=1e-10)
        contraction = curvature_contraction(fr.chern, Zt, fr.nu_C)
        assert contraction == pytest.approx(ref.curvature, rel=1e-10)


def test_worm_curvature_value_at_unit_fiber(worm_kahler):
    # 2/t at t = 1.2 is 1.6667
    from dfindex.boundary import normal_frame

    P = np.array([0.0, 1.0], dtype=complex)
    fr = normal_frame(worm_kahler, P)
    val = curvature_contraction(fr.chern, CTVector.holo([0.0, 1.0]), fr.nu_C)
    assert val == pytest.approx(2.0 / 1.2, rel=1e-12)


def test_hess_op_examples(ball):
    metric = MetricField.euclidean(2)
    f = ScalarField(2, lambda zs: jets.abs2(zs[0]) + jets.abs2(zs[1]))
    z = np.array([0.4 - 0.6j, 0.2 + 0.3j])
    d1 = CTVector.holo([1.0, 0.0])
    fr, table = chern_frame(metric, z, order=1), wirtinger_table(f.jet(z, 2), 2)
    assert hess_op(hess_tensor(table, fr), d1, d1.conj()) == pytest.approx(1.0, abs=1e-13)


def test_hessian_with_normal_direction_is_log_gradient_derivative(ball):
    # Hess(Y, X_r) r = |dr|^{-1} Y |dr| on the boundary
    from dfindex.boundary import normal_frame, sample_boundary

    for p in sample_boundary(ball, 4, 5):
        fr = normal_frame(ball, p)
        Y = CTVector.real_vector([0.3 + 0.2j, -0.5j])
        lhs = fr.hess_r(Y, fr.X)
        gjet = fr.grad_norm_jet
        w1 = wirtinger_table(gjet, 2).w1
        rhs = complex(Y.coeffs @ w1) / gjet.value
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_hess_antisymmetrization_is_minus_torsion(rng):
    metric = random_metric(2, rng)
    f = random_scalar_field(2, rng)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    fr = chern_frame(metric, z, order=1)
    table = wirtinger_table(f.jet(z, 2), 2)
    X = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    Y = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    hc = hess_tensor(table, fr)
    lhs = hess_op(hc, X, Y) - hess_op(hc, Y, X)
    t = torsion(fr, X, Y)
    rhs = -complex(t.coeffs @ table.w1)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_h3_vanishes_for_quadratic_euclidean():
    metric = MetricField.euclidean(2)
    f = ScalarField(2, lambda zs: jets.abs2(zs[0]) + (zs[1] ** 2).real() * 0.5)
    z = np.array([0.7 + 0.2j, -0.4 + 0.1j])
    vecs = [CTVector.holo([1.0, 0.3j]), CTVector.holo([0.2, 1.0]), CTVector.anti([0.5, 1.0])]
    fr, table = chern_frame(metric, z, order=2), wirtinger_table(f.jet(z, 3), 2)
    assert abs(h3_op(h3_tensor(table, fr, hess_tensor(table, fr)), *vecs)) < 1e-13


def test_h3_identities_random_sample():
    records = h3_identity_suite(count=30, seed=7)
    for rec in records:
        assert rec.passed, f"{rec.name}: residual {rec.residual} > {rec.tol}"


def test_structural_suite_passes():
    for rec in structural_suite(count=10, seed=9):
        assert rec.passed, f"{rec.name}: residual {rec.residual} > {rec.tol}"


def test_covariant_derivative_cases(worm_euclid):
    metric = MetricField.euclidean(2)
    z = np.array([0.3 + 0.4j, 0.9 - 0.2j])
    const = VectorField.from_holo([
        ScalarField(2, lambda zs: jets.Jet.constant(1.0, 4, zs[0].order)),
        ScalarField(2, lambda zs: jets.Jet.constant(0.5j, 4, zs[0].order)),
    ])
    fr = chern_frame(metric, z, order=1)
    out = covariant_derivative(fr, CTVector.holo([1.0, 1.0]), const)
    assert np.max(np.abs(out.coeffs)) == 0.0
    # holomorphic field along an antiholomorphic direction
    holo = VectorField.from_holo([ScalarField(2, lambda zs: zs[0] * zs[1]),
                                  ScalarField(2, lambda zs: zs[1] ** 2)])
    out2 = covariant_derivative(fr, CTVector.anti([1.0, -0.5j]), holo)
    assert np.max(np.abs(out2.coeffs)) < 1e-13

    # nabla_{Zbar} L = (i / conj(z2)) L on the degenerate annulus (euclidean)
    from dfindex.boundary import normal_frame

    P = np.array([0.0, math.exp(0.25) * np.exp(0.4j)], dtype=complex)
    fr = normal_frame(worm_euclid, P)
    nb = fr.nabla_L(CTVector.anti([0.0, 1.0]))
    assert nb.h[0] / fr.L.h[0] == pytest.approx(1j / np.conj(P[1]), rel=1e-11)


def test_curvature_contraction_is_real_and_conjugate_symmetric(rng):
    metric = random_metric(2, rng)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    fr = chern_frame(metric, z, order=2)
    Z = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    W = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    V = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    val = curvature_contraction(fr, Z, V)
    assert isinstance(val, float)
    a = inner(fr.g, curvature(fr, Z, W.conj(), V), V)
    b = inner(fr.g, curvature(fr, W, Z.conj(), V), V)
    assert a == pytest.approx(np.conj(b), abs=1e-10)


@pytest.mark.parametrize("source", ["chern_frame", "normal_frame"])
def test_an_order_1_connection_raises_for_its_derivatives_only(ball, source):
    from dfindex.boundary import NormalFrame

    if source == "chern_frame":
        metric, z = MetricField.euclidean(2), np.array([0.5, 0.2], dtype=complex)
        fr = chern_frame(metric, (0.5, 0.2), order=1)
    else:
        metric, z = ball.metric, np.array([1.0, 0.0], dtype=complex)
        fr = NormalFrame(ball, z, r_order=2).chern
    assert fr.order == 1
    x, y = CTVector.holo([0.3, 1.0j]), CTVector.holo([1.0, 0.5])
    for read in (lambda: fr.curvature_tensor, lambda: fr.dgamma2n,
                 lambda: curvature(fr, x, y.conj(), y), lambda: curvature_contraction(fr, x, y)):
        with pytest.raises(jets.JetOrderError, match="needs metric jets of order 2, the connection has 1"):
            read()
    # what an order-1 connection holds still works
    assert np.all(np.isfinite(fr.gamma)) and np.all(np.isfinite(fr.dG_h))
    assert np.all(np.isfinite(torsion(fr, x, y).coeffs))
    assert kahler_defect(metric, z) == 0.0


def test_an_order_0_connection_is_refused(ball):
    from dfindex.boundary import NormalFrame

    with pytest.raises(jets.JetOrderError, match="the connection needs metric jets of order 1, got 0"):
        chern_frame(MetricField.euclidean(2), (0.5, 0.2), order=0)
    fr = NormalFrame(ball, np.array([1.0, 0.0], dtype=complex), r_order=1)
    assert fr.grad_norm == pytest.approx(math.sqrt(2.0))   # G and |dr| need no connection
    with pytest.raises(jets.JetOrderError, match="the connection needs metric jets of order 1, got 0"):
        fr.chern
