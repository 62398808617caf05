import math

import numpy as np
import pytest

from dfindex import boundary, geometry, jets
from dfindex.boundary import (
    DomainSpec,
    ProjectionError,
    admissibility_diagnostic,
    collar_levi_compare,
    find_collar_depth,
    levi_data,
    normal_frame,
    point_at_depth,
    project_to_boundary,
    sample_boundary,
    second_fundamental_form,
    transport_along_normal,
)
from dfindex.domains import make_domain
from dfindex.estimator import geometric_margin, vectorfield_margin
from dfindex.fields import ChartDomainError, ScalarField
from dfindex.forms import alpha, alpha_geometric, beta_geometric, beta_mixed
from dfindex.geometry import CTVector, MetricError, MetricField, curvature_contraction
from dfindex.worm import WormParams, sgamma_points, worm_domain


def test_projection_on_ball(ball):
    bp = project_to_boundary(ball, np.array([1.1, 0.0], dtype=complex))
    np.testing.assert_allclose(bp.z, [1.0, 0.0], atol=1e-10)
    with pytest.raises(ProjectionError, match="vanishing gradient"):
        project_to_boundary(ball, np.zeros(2, dtype=complex))


def test_projection_on_worm_fiber(worm_euclid):
    bp = project_to_boundary(worm_euclid, np.array([0.05, 1.0], dtype=complex))
    assert bp.z[1] == pytest.approx(1.0, abs=1e-12)      # Newton stays on the fiber
    assert abs(worm_euclid.r(bp.z)) <= 1e-10


def test_a_nan_coordinate_is_outside_the_chart(ball, worm_euclid):
    assert not ball.in_chart(np.array([np.nan, 0.5]))
    assert ball.in_chart(np.array([[0.5, 0.5], [np.nan, 0.5]])).tolist() == [True, False]
    # a NaN in the fibre coordinate, which min_abs_coord also tests
    assert not worm_euclid.in_chart(np.array([0.1, np.nan]))
    # the chart check rejects a NaN start before any Newton step
    with pytest.raises(ChartDomainError, match="outside chart"):
        project_to_boundary(ball, np.array([np.nan, 0.5]))


def test_sample_boundary(ball, worm_euclid):
    pts = sample_boundary(ball, 3, 7)
    assert len(pts) == 3
    for p in pts:
        assert abs(np.linalg.norm(p.z) - 1.0) < 1e-10
    keys = {tuple(np.round(p.z.view(float), 9)) for p in pts}
    assert len(keys) == 3

    worm_pts = sample_boundary(worm_euclid, 100, 3)
    assert max(p.residual for p in worm_pts) <= 1e-10
    with pytest.raises(ValueError):
        sample_boundary(ball, 0, 1)


def test_sampling_error_when_box_has_no_boundary():
    f = ScalarField(1, lambda zs: jets.abs2(zs[0]) - 1.0)
    dom = DomainSpec(name="tiny", n=1, r=f, metric=MetricField.euclidean(1),
                     box=np.array([[-0.2, 0.2], [-0.2, 0.2]]),
                     interior_point=np.zeros(1, dtype=complex))
    with pytest.raises(ProjectionError, match="no boundary hits"):
        sample_boundary(dom, 2, 0, max_trials_factor=20)


def test_normal_frame_ball(ball):
    fr = normal_frame(ball, np.array([1.0, 0.0], dtype=complex))
    np.testing.assert_allclose(fr.L.h, [1.0, 0.0], atol=1e-13)
    assert fr.dbar_norm == pytest.approx(1.0)
    assert fr.dr(fr.L) == pytest.approx(1.0, abs=1e-13)


def test_normal_frame_worm_annulus(worm_euclid, worm_kahler):
    for domain in (worm_euclid, worm_kahler):
        for z2 in (1.0, math.exp(0.3) * np.exp(1.1j)):
            P = np.array([0.0, z2], dtype=complex)
            fr = normal_frame(domain, P)
            x = math.log(abs(z2) ** 2)
            np.testing.assert_allclose(fr.L.h, [np.exp(1j * x), 0.0], atol=1e-11)
            assert fr.dr(fr.L) == pytest.approx(1.0, abs=1e-11)
            assert math.sqrt(fr.norm2(fr.L)) == pytest.approx(1.0 / fr.dbar_norm, abs=1e-11)
            nu_check = (fr.nu_R - 1j * fr.nu_R.J()) * (1.0 / math.sqrt(2.0))
            np.testing.assert_allclose(nu_check.coeffs, fr.nu_C.coeffs, atol=1e-11)


def test_frame_identities_on_samples(ball, worm_euclid):
    for domain in (ball, worm_euclid):
        for p in sample_boundary(domain, 10, 2):
            fr = normal_frame(domain, p)
            assert abs(fr.dr(fr.L) - 1.0) < 1e-10
            assert abs(math.sqrt(fr.norm2(fr.L)) - 1.0 / fr.dbar_norm) < 1e-10


def test_levi_data_ball(ball):
    ld = levi_data(normal_frame(ball, np.array([1.0, 0.0], dtype=complex)))
    assert ld.levi.shape == (1, 1)
    assert ld.levi[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert not len(ld.pairs(ld.null)[0])


def test_levi_data_worm_null_direction(worm_euclid, worm_kahler):
    P = np.array([0.0, math.exp(-0.2) * np.exp(0.3j)], dtype=complex)
    for domain in (worm_euclid, worm_kahler):
        ld = levi_data(normal_frame(domain, P))
        at, null = ld.pairs(ld.null)
        assert len(at) == 1
        assert abs(ld.eigenvalues[0]) < 1e-10
        direction = null.h[0]
        # null direction is the fiber direction d/dz2 regardless of metric
        assert abs(direction[0]) < 1e-10
        assert abs(direction[1]) > 0.1


def test_check_null_fails_a_nan_direction(ball):
    # at (1, 0) the ball has no null direction: only Z = 0 is null
    ld = levi_data(normal_frame(ball, np.array([1.0, 0.0], dtype=complex)))
    ld.check_null(CTVector.holo([0.0, 0.0]))
    for z in ([0.0, 1.0], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="null space at"):
            ld.check_null(CTVector.holo(z))
    # a batch: Z = 0 passes at every point, a NaN in one row fails that row
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]], dtype=complex)
    batch = levi_data(normal_frame(ball, points))
    zero = np.zeros((3, 2), dtype=complex)
    batch.check_null(CTVector.holo(zero))
    zero[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"null space at \[0\.\+0\.j 1\.\+0\.j\]"):
        batch.check_null(CTVector.holo(zero))


def _ball_rows_with_tangents():
    """Three ball points and a (1,0) tangent Z = (conj z2, -conj z1) at each."""
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]], dtype=complex)
    return points, np.stack([points[:, 1].conj(), -points[:, 0].conj()], axis=1)


def test_sff_tangency_guard_fails_a_nan_direction(ball):
    fr = normal_frame(ball, np.array([1.0, 0.0], dtype=complex))
    tangent, nan = CTVector.holo([0.0, 1.0]), CTVector.holo([np.nan, 0.0])
    assert np.all(np.isfinite(second_fundamental_form(fr, tangent, tangent).coeffs))
    with pytest.raises(ValueError, match="X is not tangent at"):
        second_fundamental_form(fr, nan, tangent)
    # a NaN in Y also makes the shared scale NaN, so the check of X already fails
    with pytest.raises(ValueError, match="is not tangent at"):
        second_fundamental_form(fr, tangent, nan)
    # a batch: tangent rows pass, a NaN in one row fails that row
    points, zs = _ball_rows_with_tangents()
    batch = normal_frame(ball, points)
    assert np.all(np.isfinite(second_fundamental_form(batch, CTVector.holo(zs), CTVector.holo(zs)).coeffs))
    zs[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"X is not tangent at \[0\.\+0\.j 1\.\+0\.j\]"):
        second_fundamental_form(batch, CTVector.holo(zs), CTVector.holo(points * 0.0))


def test_a_frame_evaluates_r_the_metric_and_the_connection_once(worm_kahler, monkeypatch):
    calls = {"r": 0, "metric": 0, "chern": 0, "inverse": 0, "hessian": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(worm_kahler.r, "jet", counted("r", worm_kahler.r.jet))
    monkeypatch.setattr(worm_kahler.metric, "jets", counted("metric", worm_kahler.metric.jets))
    monkeypatch.setattr(boundary, "chern_frame", counted("chern", boundary.chern_frame))
    # the metric's jets are inverted once, and H^3 extends the frame's Hessian tensor
    monkeypatch.setattr(geometry, "jet_matrix_inverse", counted("inverse", geometry.jet_matrix_inverse))
    hessian = counted("hessian", geometry.hess_tensor)
    monkeypatch.setattr(geometry, "hess_tensor", hessian)
    monkeypatch.setattr(boundary, "hess_tensor", hessian)
    points = sgamma_points(worm_kahler.params["worm"], 6, spread=0.9)
    fr = normal_frame(worm_kahler, points)
    zvec = CTVector.holo(np.broadcast_to([0.0, 1.0 + 0.0j], (6, 2)))   # null on S_gamma
    # the Hessian first: it needs only the connection, not its derivatives
    values = [fr.hess_r(fr.X, zvec), alpha(fr, zvec), beta_mixed(fr, zvec, zvec),
              alpha_geometric(fr, zvec), beta_geometric(fr, zvec),
              geometric_margin(fr, zvec, 0.4), vectorfield_margin(fr, zvec, 0.4)]
    assert all(np.all(np.isfinite(v)) for v in values)
    assert calls == {"r": 1, "metric": 1, "chern": 1, "inverse": 1, "hessian": 1}


@pytest.mark.parametrize("r_order", [1, 2, 3])
def test_a_frame_evaluates_the_metric_through_r_order_minus_1(ball, worm_kahler, r_order):
    for domain in (ball, worm_kahler):
        fr = normal_frame(domain, sample_boundary(domain, 6, 17), r_order=r_order)
        assert {e.order for row in fr.metric_jets for e in row} == {r_order - 1}
        if r_order == 2:
            # the Hessian needs the connection only: an order-1 one gives the order-3 frame's bits
            full = normal_frame(domain, fr.z)
            x, y = CTVector.holo([0.3 + 0.1j, -0.5j]), CTVector([0.2, 1.0], [0.7j, -0.4])
            assert np.array_equal(fr.hess2n, full.hess2n)
            assert np.array_equal(fr.hess_r(x, y), full.hess_r(x, y))
            assert np.array_equal(fr.hess_r(fr.X, x), full.hess_r(full.X, x))


def test_quantities_past_the_frame_order_raise(ball):
    fr = normal_frame(ball, np.array([1.0, 0.0], dtype=complex), r_order=2)
    assert np.all(np.isfinite(fr.hess2n))
    for name in ("h3t", "L_jets", "L_w1", "grad_norm_jet"):
        with pytest.raises(jets.JetOrderError, match="needs jets of r of order 3"):
            getattr(fr, name)


def test_curvature_contraction_guard_fails_a_nan_direction(ball):
    fr = normal_frame(ball, np.array([1.0, 0.0], dtype=complex))
    assert curvature_contraction(fr.chern, CTVector.holo([0.0, 1.0]), fr.nu_C) == 0.0
    with pytest.raises(MetricError, match="curvature contraction not real"):
        curvature_contraction(fr.chern, CTVector.holo([np.nan, 0.0]), fr.nu_C)
    # a batch: finite rows pass, a NaN in one row fails
    points, zs = _ball_rows_with_tangents()
    batch = normal_frame(ball, points)
    assert np.all(curvature_contraction(batch.chern, CTVector.holo(zs), batch.nu_C) == 0.0)
    zs[1, 0] = np.nan
    with pytest.raises(MetricError, match="curvature contraction not real"):
        curvature_contraction(batch.chern, CTVector.holo(zs), batch.nu_C)


def test_second_fundamental_form_contract(ball, rng):
    # <sff(Y1, Y2), X_r> = -|X_r|^2 Hess(Y1, Y2) r for tangent inputs
    for p in sample_boundary(ball, 4, 11):
        fr = normal_frame(ball, p)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = raw - (fr.u @ raw) * fr.L.h
        Y = CTVector.real_vector(w)
        sff = second_fundamental_form(fr, Y, Y)
        lhs = fr.inner(sff, fr.X)
        rhs = -fr.norm2(fr.X) * fr.hess_r(Y, Y)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    with pytest.raises(ValueError, match="not tangent"):
        second_fundamental_form(normal_frame(ball, np.array([1.0, 0.0], dtype=complex)),
                                CTVector.holo([1.0, 0.0]), CTVector.holo([0.0, 1.0]))


def test_sff_worm_closed_forms(worm_kahler):
    wp = worm_kahler.params["worm"]
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.35) * np.exp(0.8j)):
        P = np.array([0.0, z2], dtype=complex)
        fr = normal_frame(worm_kahler, P)
        x = math.log(abs(z2) ** 2)
        sff_zz = second_fundamental_form(fr, Z, Z)
        assert math.sqrt(max(fr.norm2(sff_zz), 0.0)) < 1e-10
        sff_j = second_fundamental_form(fr, Z, fr.nu_R.J())
        expected = (1.0 / math.cos(x / wp.t) ** 2) / abs(z2) ** 2
        assert fr.norm2(sff_j) == pytest.approx(expected, rel=1e-10)


def test_transport_invariants(ball, worm_euclid):
    base = normal_frame(ball, sample_boundary(ball, 1, 4)[0])
    ld = levi_data(base)
    path = transport_along_normal(base, ld.basis[0], 0.1, steps=20)
    assert np.max(np.abs(path.r_residual)) < 1e-8
    assert np.max(path.tangency) < 1e-8
    assert np.max(path.norm_drift) < 1e-8

    base2 = normal_frame(worm_euclid, np.array([0.0, 1.0], dtype=complex))
    path2 = transport_along_normal(base2, CTVector.holo([0.0, 1.0]), 0.02, steps=10)
    assert np.max(path2.tangency) < 1e-8
    assert np.max(path2.norm_drift) < 1e-8

    # too-deep collar: the flow degenerates (gradient tolerance) or leaves the chart
    with pytest.raises(Exception, match="chart|exits|tolerance"):
        transport_along_normal(base, ld.basis[0], 5.0)


def test_a_transport_is_refused_only_where_d_r_collapses(ball):
    # ellipsoid(1,2) at |z1|^2 = 0.5, |z2|^2 = 2: |d r|^2 falls faster than linearly in the
    # depth at first, yet r's only critical point is at depth 1, so depth 0.9 is reached
    ell = make_domain("ellipsoid(1,2)")
    base = normal_frame(ell, np.array([math.sqrt(0.5), math.sqrt(2.0)], dtype=complex))
    path = transport_along_normal(base, levi_data(base).basis[0], 0.9, steps=4)
    assert path.times[-1] == -0.9
    assert np.max(np.abs(path.r_residual)) < 1e-8
    # on the ball |d r|^2 is proportional to 1 + t and vanishes at the centre, depth 1
    base = normal_frame(ball, sample_boundary(ball, 1, 4)[0])
    with pytest.raises(ProjectionError, match=r"refused at t = -0\.99999.*collapse tolerance"):
        transport_along_normal(base, levi_data(base).basis[0], 1.5)


def test_collar_compare_at_zero_depth_is_equality(ball):
    base = normal_frame(ball, sample_boundary(ball, 1, 6)[0])
    rep = collar_levi_compare(base, levi_data(base).basis[0], 0.04, eps=0.1, steps=6)
    # at t -> 0 both bounds approach the boundary Levi form; defects stay >= 0
    assert rep["holds"]
    assert rep["rows"][0]["t"] > -0.01


def test_collar_compare_does_not_hold_over_a_nan_defect(ball, monkeypatch):
    from dfindex import forms

    base = normal_frame(ball, sample_boundary(ball, 1, 6)[0])
    real = forms.beta_mixed

    def beta(*args, **kwargs):
        # every depth of the path is one row of a batch; the third row is NaN
        out = np.array(real(*args, **kwargs))
        out[2] = complex("nan")
        return out

    monkeypatch.setattr(forms, "beta_mixed", beta)
    rep = collar_levi_compare(base, levi_data(base).basis[0], 0.04, eps=0.1, steps=6)
    assert math.isnan(rep["rows"][2]["lower_defect"]) and math.isfinite(rep["rows"][0]["lower_defect"])
    assert math.isnan(rep["min_lower_defect"]) and math.isnan(rep["min_upper_defect"])
    assert not rep["holds"]


def test_find_collar_depth(ball):
    frames = [normal_frame(ball, p) for p in sample_boundary(ball, 3, 8)]
    sites = [(fr, levi_data(fr).basis[0]) for fr in frames]
    delta, reports = find_collar_depth(sites, eps=0.1, delta0=0.05, steps=6)
    assert delta > 0
    assert all(r["holds"] for r in reports)


def test_point_at_depth(ball):
    p = sample_boundary(ball, 1, 9)[0]
    z = point_at_depth(ball, p, 1e-3)
    assert ball.r(z) == pytest.approx(-1e-3, rel=1e-9)


def test_grad_norm_jet_constant_for_signed_distance(ball_sd):
    for p in sample_boundary(ball_sd, 5, 10):
        val = normal_frame(ball_sd, p).grad_norm_jet.value
        assert val == pytest.approx(1.0, rel=1e-12)


def test_admissibility_diagnostic_flags_rough_gradient(ball):
    p = sample_boundary(ball, 1, 12)[0]
    rep = admissibility_diagnostic(ball, p)
    assert not rep["rough"]

    # C^2 defining function whose gradient norm is not C^2: a cubic-ramp
    # kink away from the gradient's zero set
    def rough_fn(zs):
        x = zs[0].real() - 0.3
        ramp = x if np.real(x.value) > 0 else jets.Jet.constant(0.0, 4, x.order)
        return jets.abs2(zs[0]) + jets.abs2(zs[1]) - 1.0 + 0.5 * ramp**3

    rough = DomainSpec(name="rough", n=2, r=ScalarField(2, rough_fn),
                       metric=MetricField.euclidean(2),
                       box=np.array([[-1.5, 1.5]] * 4),
                       interior_point=np.zeros(2, dtype=complex))
    rep2 = admissibility_diagnostic(rough, np.array([0.3 + 0.0j, 0.8 + 0.0j]))
    assert rep2["rough"]


def test_worm_domain_values():
    wp = WormParams(gamma=math.pi, t=1.2)
    dom = worm_domain(wp, metric="euclidean")
    assert dom.r(np.array([0.0, 1.0], dtype=complex)) == pytest.approx(0.0, abs=1e-14)
    assert dom.r(np.array([0.5, 1.0], dtype=complex)) == pytest.approx(1.25, rel=1e-14)


def test_sgamma_points_are_boundary_points(worm_euclid):
    wp = worm_euclid.params["worm"]
    for p in sgamma_points(wp, 20, spread=0.97):
        assert abs(worm_euclid.r(p.z)) < 1e-13
