import math
import re

import numpy as np
import pytest

from dfindex import jets, worm
from dfindex.boundary import levi_data, normal_frame, sample_boundary
from dfindex.estimator import Problem, collect_sites, estimate_index
from dfindex.fields import seed_coordinate_jets
from dfindex.geometry import CTVector, MetricField, curvature_contraction
from dfindex.worm import (
    RiccatiResult,
    WormParams,
    riccati_feasibility,
    riccati_threshold,
    s_gamma_reference,
    sgamma_points,
    worm_domain,
    worm_metric,
    worm_reduction_basis,
)


def test_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        WormParams(gamma=1.0)
    with pytest.raises(ValueError, match="t must exceed"):
        WormParams(gamma=math.pi, t=0.9)
    wp = WormParams(gamma=math.pi)
    assert wp.t == pytest.approx(1.2)
    assert wp.a == pytest.approx(math.pi / 2)


def test_metric_matrix_on_annulus(worm_kahler):
    wp = worm_kahler.params["worm"]
    for z2 in (1.0, math.exp(0.4 / 2) * np.exp(0.7j)):
        z = np.array([0.0, z2], dtype=complex)
        g = worm_kahler.metric.matrix(z)
        x = math.log(abs(z2) ** 2)
        f = math.cos(x / wp.t) ** (2 * wp.t)
        assert g[0, 0] == pytest.approx(f, rel=1e-12)
        assert g[1, 1] == pytest.approx(wp.s / abs(z2) ** 2, rel=1e-12)
        assert abs(g[0, 1]) < 1e-14 and abs(g[1, 0]) < 1e-14


def test_metric_profile_derivative_identity(worm_kahler):
    # f'(x) = -2 f(x) tan(x/t) on the cosine branch, read from the entry jets
    wp = worm_kahler.params["worm"]
    z = np.array([0.3 + 0.1j, math.exp(0.2) + 0.0j], dtype=complex)
    mjets = worm_kahler.metric.jets(z, 1)
    from dfindex.fields import dz_jet

    x = math.log(abs(z[1]) ** 2)
    f = math.cos(x / wp.t) ** (2 * wp.t)
    fprime = -2.0 * f * math.tan(x / wp.t)
    # d g_11 / dz2 = f'(x) / z2
    d = dz_jet(mjets[0][0], 1, 2).value
    assert d == pytest.approx(fprime / z[1], rel=1e-11)


def test_metric_positivity_error_reports_minimal_s():
    message = ("s = 0.25 leaves the worm metric indefinite (min eigenvalue -7.542e+00); "
               "minimal passing s found by doubling: 8.0")
    with pytest.raises(ValueError, match=re.escape(message)):
        worm_metric(WormParams(gamma=math.pi, t=1.2, s=0.25))


def _scanned_fiber_scale(params, s):
    """The fiber scale by building the metric: the first of s, 2 max(s, 1), 4 max(s, 1), ...
    whose smallest eigenvalue over ``worm_metric``'s sample reaches the floor; None if none does."""
    sample = worm._positivity_sample(params)
    for _ in range(worm._DOUBLINGS + 1):
        g = MetricField(2, worm._entries(params, s)).matrix(sample)
        if np.min(np.linalg.eigvalsh(g)[:, 0]) >= worm._POSITIVITY_FLOOR:
            return s
        s = 2.0 * max(s, 1.0)
    return None


@pytest.mark.parametrize("gamma, t, s", [
    (1.0, 1.2, 8.0), (0.6, None, 64.0), (1.195, None, 8.0), (1.2, 1.65, 8.0), (1.5, 2.5, 4.0),
    (2.0, 4.4, 2.0), (2.0, 6.0, 2.0),
])
def test_metric_fiber_scale_matches_the_eigenvalue_scan(gamma, t, s):
    params = WormParams(gamma=gamma * math.pi, t=t)
    metric = worm_metric(params)
    assert params.s == _scanned_fiber_scale(params, 1.0) == s
    assert metric.name == f"omega_worm(s={s:g})"


@pytest.mark.parametrize("s, found", [(0.25, 8.0), (8.0, 8.0), (16.0, 16.0)])
def test_metric_explicit_fiber_scale_matches_the_eigenvalue_scan(s, found):
    params = WormParams(gamma=math.pi, t=1.2, s=s)
    assert _scanned_fiber_scale(params, s) == found
    if found == s:
        assert worm_metric(params).name == f"omega_worm(s={s:g})" and params.s == s
    else:
        with pytest.raises(ValueError, match=re.escape(f"minimal passing s found by doubling: {found}")):
            worm_metric(params)


@pytest.mark.parametrize("gamma, t, s", [(1.2, 1.65, 8), (1.5, 2.5, 4), (2.0, 4.4, 2)])
def test_metric_refusal_names_the_smallest_passing_t(gamma, t, s):
    params = WormParams(gamma=gamma * math.pi)
    assert _scanned_fiber_scale(params, 1.0) is None
    with pytest.raises(ValueError, match=re.escape(f"raise t (domain_params.t) to {t:g}, the smallest "
                                                   f"t = k/20 above it that passes (s = {s})")):
        worm_metric(params)
    assert _scanned_fiber_scale(WormParams(gamma=gamma * math.pi, t=t), 1.0) == s


def test_metric_build_constructs_only_the_metric_it_returns(monkeypatch):
    count = []

    class Counting(MetricField):
        def __init__(self, *args, **kwargs):
            count.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(worm, "MetricField", Counting)
    worm_metric(WormParams(gamma=math.pi))
    assert len(count) == 1
    # the refused worm(2 pi) default, and each t its hint tries, builds none
    with pytest.raises(ValueError, match="raise t"):
        worm_metric(WormParams(gamma=2 * math.pi))
    assert len(count) == 1


def test_metric_positivity_check_refuses_a_t_with_a_nan_on_the_sample(monkeypatch):
    real = worm._f_jets

    def nan_first(x, params):
        f, f1, f2 = real(x, params)
        first = np.arange(f.value.size) == 0     # one NaN, at the first sample point
        return jets.branch(first, lambda f: f * math.nan, lambda f: f, f), f1, f2

    monkeypatch.setattr(worm, "_f_jets", nan_first)
    message = re.escape("no positive-definite s found by doubling at t = 1.2; "
                        "no t = k/20 up to 21.2 passes either")
    for s in (None, 8.0):
        with pytest.raises(ValueError, match=message):
            worm_metric(WormParams(gamma=math.pi, t=1.2, s=s))


def test_pseudoconvexity_monitor(worm_euclid):
    pts = sample_boundary(worm_euclid, 500, 123)
    worst = min(levi_data(normal_frame(worm_euclid, p)).eigenvalues[0] for p in pts)
    assert worst >= -1e-8


def test_s_gamma_reference_values():
    wp = WormParams(gamma=math.pi, t=1.2)
    ref = s_gamma_reference(wp, 1.0)
    assert ref.alpha == pytest.approx(1j)
    assert ref.curvature == pytest.approx(2.0 / 1.2)
    assert ref.sff_JnuR_sq == pytest.approx(1.0)
    assert ref.margin(0.4) == pytest.approx(1.0 / 1.2 - 0.4 / 0.6)
    assert ref.margin(1.0 / (wp.t + 1.0)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\), got 1.0"):
        ref.margin(1.0)
    with pytest.raises(ValueError, match="off the degenerate annulus"):
        s_gamma_reference(wp, np.exp(0.9))     # |log|z2|^2| = 1.8 > pi/2


def test_lambda_smoothing_isolation():
    # two different smoothing specs leave every annulus quantity unchanged
    zvec = CTVector.holo([0.0, 1.0])
    values = []
    for lam_c, lam_p in ((20.0, 3), (35.0, 4)):
        wp = WormParams(gamma=math.pi, t=1.2, s=8.0, lam_c=lam_c, lam_p=lam_p)
        dom = worm_domain(wp, metric="worm_kahler")
        row = []
        for p in sgamma_points(wp, 8, spread=0.8):
            fr = normal_frame(dom, p)
            from dfindex import forms

            row.append(complex(forms.alpha(fr, zvec)))
            row.append(complex(forms.beta_mixed(fr, zvec, zvec)))
            row.append(curvature_contraction(fr.chern, zvec, fr.nu_C))
        values.append(np.array(row, dtype=complex))
    np.testing.assert_allclose(values[0], values[1], atol=1e-12)


def test_riccati_feasibility_cases():
    assert riccati_feasibility(math.pi, 0.45).status == "feasible"
    res = riccati_feasibility(math.pi, 0.55)
    assert res.status == "infeasible"
    assert res.blowup_x is not None and 0 < res.blowup_x < math.pi / 2
    # blow-up location matches the tan profile: x* = (1-eta)/eta * pi/2 ... = pi/(2k)
    k = 0.55 / 0.45
    assert res.blowup_x == pytest.approx(math.pi / (2 * k), abs=1e-4)
    near = riccati_feasibility(math.pi, 0.5 + 1e-8)
    assert near.status == "indeterminate"
    assert riccati_feasibility(math.pi, 0.0).feasible
    with pytest.raises(ValueError):
        riccati_feasibility(math.pi, 1.0)
    with pytest.raises(ValueError):
        riccati_feasibility(1.0, 0.3)


def test_riccati_thresholds_match_index_formula():
    for gamma in (0.6 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi):
        assert riccati_threshold(gamma) == pytest.approx(math.pi / (2 * gamma), abs=1e-3)


def test_riccati_threshold_is_pi_over_two_gamma_and_splits_feasibility():
    for gamma in (0.6 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi):
        th = riccati_threshold(gamma)
        assert abs(th - math.pi / (2 * gamma)) <= 1e-6
        # the feasibility test agrees on both sides
        assert riccati_feasibility(gamma, th - 1e-3).status == "feasible"
        assert riccati_feasibility(gamma, th + 1e-3).status == "infeasible"
    with pytest.raises(ValueError):
        riccati_threshold(1.0)


def test_riccati_witness_profile_is_tan():
    res = riccati_feasibility(math.pi, 0.4)
    assert isinstance(res, RiccatiResult)
    k = 0.4 / 0.6
    np.testing.assert_allclose(res.profile, np.tan(k * res.xs), atol=1e-7)


def test_sgamma_thresholds_rise_with_the_degree_up_to_the_sampled_riccati_threshold(worm_euclid):
    # an independent reference for the closed form: S_gamma sites on |x| <= s a ask tan(k x) to
    # stay finite on [0, s a] only, so the sampled problem's threshold is pi/(2 s a + pi),
    # and a finite degree pulls it down
    wp, spread = worm_euclid.params["worm"], 0.99
    sampled = math.pi / (2 * spread * wp.a + math.pi)
    brackets = []
    for degree in (20, 40):
        basis = worm_euclid.h_basis(degree, spread)
        sites, min_pc = collect_sites(worm_euclid, sgamma_points(wp, 8 * basis.m, spread), basis)
        est = estimate_index(Problem(worm_euclid, sites, min_pc, box_radius=50.0, C_floor=1e-4), tol_eta=1e-4)
        brackets.append((est.eta_lo, est.eta_hi))
    (lo20, hi20), (lo40, hi40) = brackets
    assert hi20 < lo40
    assert max(hi20, hi40) <= sampled + 1e-4
    # measured 4.85e-3 below it: degree 40 is within 5e-3
    assert sampled - lo40 <= 5e-3


@pytest.mark.parametrize("metric", ["euclidean", "worm_kahler"])
def test_site_margins_do_not_depend_on_the_angle_of_z2(metric):
    # the worm, both metrics and the basis are invariant under z2 -> e^{i theta} z2
    domain = worm_domain(WormParams(gamma=math.pi), metric=metric)
    basis = domain.h_basis(12, 0.99)
    xs = np.linspace(-0.9, 0.9, 5) * domain.params["worm"].a
    thetas = 0.3 + np.arange(4) * math.pi / 2
    z2 = np.exp(xs[:, None] / 2.0 + 1j * thetas[None, :]).ravel()
    sites, _ = collect_sites(domain, np.stack([np.zeros_like(z2), z2], axis=1), basis)
    assert len(sites) == len(z2)
    c = np.random.default_rng(8).standard_normal(basis.m)
    margins = sites.margins(c, 0.4).reshape(len(xs), len(thetas))
    spread = np.max(margins, axis=1) - np.min(margins, axis=1)
    assert np.max(spread) <= 1e-12 * (1.0 + np.max(np.abs(margins)))


def test_worm_domain_supplies_its_basis_and_sampler():
    params = WormParams(gamma=math.pi)
    domain = worm_domain(params)
    own, ref = domain.h_basis(6, 0.9), worm_reduction_basis(math.pi, 6, 0.9)
    assert (own.name, own.n, own.m) == (ref.name, ref.n, ref.m)
    # |z2| = 1 lies inside the sampled range of x, 3 beyond the soft clamp
    zs = seed_coordinate_jets(np.array([[0.1, 1.0], [0.0, 0.9j], [0.2, 3.0]]), 3)
    own_rows, ref_rows = own.rows(zs), ref.rows(zs)
    assert len(own_rows) == len(ref_rows) == ref.m
    for a, b in zip(own_rows, ref_rows):
        for part in ("value", "grad", "hess", "third"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
    for spread in (0.99, 0.999):
        got = domain.special_sampler(7, 3, spread=spread)
        assert [p.z.tolist() for p in got] == [p.z.tolist() for p in sgamma_points(params, 7, spread)]
    assert [p.z.tolist() for p in domain.special_sampler(7, 3)] == \
        [p.z.tolist() for p in sgamma_points(params, 7, spread=0.99)]


def test_sgamma_points_stay_on_the_annulus():
    params = WormParams(gamma=math.pi)
    for spread in (0.0, 1.02, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"spread must lie in (0, 1], got {spread}")):
            sgamma_points(params, 4, spread)
    xs = [math.log(abs(p.z[1]) ** 2) for p in sgamma_points(params, 4, 1.0)]
    assert max(map(abs, xs)) < params.a


def test_worm_domain_keeps_the_callers_params():
    params = WormParams(gamma=math.pi)
    domain = worm_domain(params, metric="worm_kahler")
    # the fiber scale worm_metric picks lands in the domain's own copy
    assert params.s is None
    found = WormParams(gamma=math.pi)
    worm_metric(found)
    own = domain.params["worm"]
    assert own is not params and own.s == found.s
    assert domain.metric.name == f"omega_worm(s={found.s:g})"
