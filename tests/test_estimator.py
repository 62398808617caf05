import json
import math
import re

import numpy as np
import pytest

from dfindex import estimator, jets
from dfindex.boundary import normal_frame, sample_boundary
from dfindex.diagnostics import tan_profile_basis
from dfindex.estimator import (
    NO_CONSTRAINT,
    DFEstimate,
    EtaCertificate,
    HBasis,
    Problem,
    SiteSet,
    boundary_margin,
    collect_sites,
    estimate_index,
    feasibility_search,
    geometric_margin,
    interior_check,
    poly_basis,
    vectorfield_margin,
)
from dfindex.fields import ScalarField, seed_coordinate_jets
from dfindex.geometry import CTVector
from dfindex.worm import sgamma_points, worm_reduction_basis

Z_FIBER = CTVector.holo([0.0, 1.0])


def test_reduction_basis_rows_match_chebyshev_and_harmonics():
    from numpy.polynomial import chebyshev

    degree, spread = 10, 0.95
    basis = worm_reduction_basis(gamma=math.pi, degree=degree, spread=spread)
    assert basis.m == degree + 3
    x_scale = spread * math.pi / 2
    for x in (-0.99 * x_scale, -0.8, 0.0, 0.31, 0.99 * x_scale):
        z2 = math.exp(x / 2.0)
        rows = basis.rows(seed_coordinate_jets([0.2 + 0.1j, z2], 1))
        assert len(rows) == basis.m
        dx = 2.0 / z2    # dx / d(Re z2) at a positive real z2; Re z2 is variable 1
        u = x / x_scale
        for p in range(degree + 1):
            e_p = np.eye(degree + 1)[p]
            assert rows[p].value == pytest.approx(chebyshev.chebval(u, e_p), abs=1e-12)
            assert rows[p].grad[1] == pytest.approx(
                chebyshev.chebval(u, chebyshev.chebder(e_p)) * dx / x_scale, rel=1e-10, abs=1e-10)
        cos_row, sin_row = rows[-2:]
        assert cos_row.value == pytest.approx(math.cos(x), abs=1e-14)
        assert sin_row.value == pytest.approx(math.sin(x), abs=1e-14)
        assert cos_row.grad[1] == pytest.approx(-math.sin(x) * dx, abs=1e-13)
        assert sin_row.grad[1] == pytest.approx(math.cos(x) * dx, abs=1e-13)


def test_poly_basis_rows_are_monomials():
    basis = poly_basis(2, degree=2)
    a, b, c, d = 0.3, -0.7, 1.1, 0.4      # z = (a + ib, c + id)
    coords = {"1": 1.0, "a": a, "b": b, "c": c, "d": d}
    # jet variables are (Re z1, Re z2, Im z1, Im z2)
    var = {"a": 0, "c": 1, "b": 2, "d": 3}
    monomials = ["1", "a", "b", "c", "d", "aa", "ab", "ac", "ad", "bb", "bc", "bd", "cc", "cd", "dd"]
    rows = basis.rows(seed_coordinate_jets([a + 1j * b, c + 1j * d], 1))
    assert basis.m == len(rows) == len(monomials)
    for row, mono in zip(rows, monomials):
        grad = np.zeros(4)
        if mono != "1":
            for i, ch in enumerate(mono):
                rest = mono[:i] + mono[i + 1:]
                grad[var[ch]] += math.prod(coords[r] for r in rest)
        assert row.value == math.prod(coords[ch] for ch in mono)
        assert np.array_equal(row.grad, grad)
    assert poly_basis(3, degree=1).m == len(poly_basis(3, degree=1).rows(
        seed_coordinate_jets([0.1, 0.2, 0.3], 0))) == 7


def test_poly_basis_names_only_degrees_it_builds():
    linear = poly_basis(2, degree=1)
    assert linear.m == 1 + 2 * 2 and linear.name == "poly(deg=1)"
    for degree in (0, 3):
        with pytest.raises(ValueError, match="degree 1 or 2"):
            poly_basis(2, degree=degree)


@pytest.mark.parametrize("basis", [worm_reduction_basis(gamma=math.pi, degree=8, spread=0.95),
                                   poly_basis(2, degree=2)], ids=["reduction", "poly"])
def test_h_field_is_the_sum_of_rows(basis):
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(basis.m)
    coeffs[::3] = 0.0
    z = np.array([0.3 - 0.2j, 0.8 + 0.5j])
    h = basis.h_field(coeffs)
    for k in range(4):
        zs = seed_coordinate_jets(z, k)
        want = jets.Jet.constant(0.0, 4, k)
        for c, phi in zip(coeffs, basis.rows(zs)):
            if c != 0.0:
                want = want + c * phi
        got = h.jet(z, k)
        assert got.value == want.value
        for name in ("grad", "hess", "third")[:k]:
            assert np.array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(ValueError, match="coefficients"):
        basis.h_field(np.zeros(basis.m + 1))


def small_worm_sites(domain, basis, count=60, spread=0.95):
    wp = domain.params["worm"]
    sites, _ = collect_sites(domain, sgamma_points(wp, count, spread=spread), basis)
    return sites


@pytest.fixture(scope="module")
def calls_at_eta(worm_euclid):
    """Each evaluator that takes eta, as a function of eta alone, on a small worm(pi) problem."""
    basis = worm_reduction_basis(gamma=math.pi, degree=4, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=8)
    c, lam, nu = np.zeros(basis.m), np.full(len(sites), 1.0 / len(sites)), np.ones(basis.m)
    p = np.array([0.0, 1.0], dtype=complex)
    fr = normal_frame(worm_euclid, p)
    return {
        "margins": lambda eta: sites.margins(c, eta),
        "dual_bound": lambda eta: estimator.dual_bound(sites, eta, lam, nu, 50.0),
        "feasibility_search": lambda eta: feasibility_search(worm_euclid, eta, basis, sites, box_radius=50.0),
        "boundary_margin": lambda eta: boundary_margin(worm_euclid, p, Z_FIBER, basis, c, eta),
        "geometric_margin": lambda eta: geometric_margin(fr, Z_FIBER, eta),
        "vectorfield_margin": lambda eta: vectorfield_margin(fr, Z_FIBER, eta),
        "interior_check": lambda eta: interior_check(worm_euclid, None, eta, [p]),
    }


@pytest.mark.parametrize("eta", [1.0, 1.5, -0.5, math.nan], ids=["1", "1.5", "-0.5", "nan"])
@pytest.mark.parametrize("name", ["margins", "dual_bound", "feasibility_search", "boundary_margin",
                                  "geometric_margin", "vectorfield_margin", "interior_check"])
def test_every_evaluator_rejects_an_eta_outside_0_1(calls_at_eta, name, eta):
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1)")):
        calls_at_eta[name](eta)


def test_boundary_margin_riccati_equality_case(worm_euclid):
    eta = 0.45
    k = eta / (1.0 - eta)
    basis = tan_profile_basis(k)
    for x in (0.0, 0.7, -1.2):
        P = np.array([0.0, math.exp(x / 2.0)], dtype=complex)
        m = boundary_margin(worm_euclid, P, Z_FIBER, basis, [1.0], eta)
        assert m == pytest.approx(0.0, abs=1e-9)


def test_boundary_margin_with_zero_h(worm_euclid):
    eta = 0.45
    k = eta / (1.0 - eta)
    basis = tan_profile_basis(k)
    for z2 in (1.0, math.exp(0.3)):
        P = np.array([0.0, z2], dtype=complex)
        m = boundary_margin(worm_euclid, P, Z_FIBER, basis, [0.0], eta)
        assert m == pytest.approx(-k / abs(z2) ** 2, rel=1e-9)
    # eta = 0 with h = 0: both sides vanish (strong Oka borderline)
    m0 = boundary_margin(worm_euclid, np.array([0.0, 1.0], dtype=complex),
                         Z_FIBER, basis, [0.0], 0.0)
    assert m0 == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError, match="eta"):
        boundary_margin(worm_euclid, np.array([0.0, 1.0], dtype=complex),
                        Z_FIBER, basis, [0.0], 1.0)


def test_geometric_margin_values(worm_kahler):
    wp = worm_kahler.params["worm"]
    fr = normal_frame(worm_kahler, np.array([0.0, 1.0], dtype=complex))
    m = geometric_margin(fr, Z_FIBER, 0.4)
    assert m == pytest.approx(1.0 / wp.t - 0.4 / 0.6, rel=1e-9)
    m_threshold = geometric_margin(fr, Z_FIBER, 1.0 / (wp.t + 1.0))
    assert m_threshold == pytest.approx(0.0, abs=1e-10)


def test_geometric_margin_sentinel_on_strictly_pseudoconvex(ball):
    fr = normal_frame(ball, np.array([1.0, 0.0], dtype=complex))
    assert geometric_margin(fr, CTVector.holo([0.0, 1.0]), 0.5) == NO_CONSTRAINT
    assert vectorfield_margin(fr, CTVector.holo([0.0, 1.0]), 0.5) == NO_CONSTRAINT


def test_margins_agree_and_zero_vector(worm_kahler):
    for z2 in (1.0, math.exp(0.4) * np.exp(1.3j)):
        fr = normal_frame(worm_kahler, np.array([0.0, z2], dtype=complex))
        for eta in (0.0, 0.4):
            gm = geometric_margin(fr, Z_FIBER, eta)
            vm = vectorfield_margin(fr, Z_FIBER, eta)
            assert vm == pytest.approx(gm, abs=1e-8)
    zero = CTVector.holo([0.0, 0.0])
    fr = normal_frame(worm_kahler, np.array([0.0, 1.0], dtype=complex))
    assert vectorfield_margin(fr, zero, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_margin_rejects_non_null_vector(worm_kahler):
    fr = normal_frame(worm_kahler, np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="null space"):
        geometric_margin(fr, CTVector.holo([1.0, 0.0]), 0.4)


def test_feasibility_without_null_sites_is_trivial(ball):
    basis = poly_basis(2, degree=2)
    pts = sample_boundary(ball, 10, 1)
    sites, min_pc = collect_sites(ball, pts, basis)
    assert len(sites) == 0
    assert min_pc == pytest.approx(1.0, abs=1e-9)
    for eta in (0.3, 0.99):
        cert = feasibility_search(ball, eta, basis, sites, box_radius=100.0)
        assert cert.feasible and cert.status == "no_null_sites"
        assert np.all(cert.coeffs == 0.0)


@pytest.mark.parametrize("lo, hi, text", [
    (0.495, 0.502734375, "DF in [0.49, 0.51]"),     # the test_01 bracket of worm(pi)
    (0.2475, 0.255234375, "DF in [0.24, 0.26]"),    # and of worm(2 pi)
    (0.495, 0.5027, "DF in [0.49, 0.51]"),
    (0.2475, 0.2552, "DF in [0.24, 0.26]"),
    (0.433125, 0.440859375, "DF in [0.43, 0.45]"),
    (0.5, 0.5, "DF in [0.50, 0.50]"),
    (0.98, 0.99, "DF in [0.98, 0.99]"),
])
def test_summary_rounds_each_end_outward(lo, hi, text):
    assert DFEstimate(eta_lo=lo, eta_hi=hi, certificates={}, warnings=[]).summary() == text


def test_summary_of_a_grid_cap_says_whether_a_site_constrains_it(ball):
    basis = poly_basis(2, degree=2)
    est = estimate_index(Problem(ball, SiteSet.empty(basis), math.inf, 100.0, 1e-4))
    assert est.summary() == "DF >= 0.99 (grid cap; no null site constrains the estimate)"
    # a cap certified feasible on sites keeps the plain wording; 0.99 is not floored to 0.98
    cert = EtaCertificate(eta=0.99, basis_id=basis.name, coeffs=np.zeros(basis.m), min_margin=1.0,
                          upper_bound=NO_CONSTRAINT, n_sites=3, feasible=True,
                          status="converged", iterations=1)
    capped = DFEstimate(eta_lo=0.99, eta_hi=1.0, certificates={0.99: cert}, warnings=[])
    assert capped.summary() == "DF >= 0.99 (grid cap)"


def test_feasibility_decisions_on_worm(worm_euclid):
    basis = worm_reduction_basis(gamma=math.pi, degree=16, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=80)
    cert_low = feasibility_search(worm_euclid, 0.30, basis, sites, box_radius=100.0)
    assert cert_low.feasible and cert_low.min_margin >= 1e-4
    cert_high = feasibility_search(worm_euclid, 0.70, basis, sites, box_radius=100.0)
    assert not cert_high.feasible
    assert cert_high.status == "infeasible_certified"
    assert cert_high.upper_bound < 1e-4


def test_feasibility_monotone_in_eta(worm_euclid):
    # a certificate at eta2 certifies every eта1 < eta2 with the same h
    basis = worm_reduction_basis(gamma=math.pi, degree=16, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=80)
    cert = feasibility_search(worm_euclid, 0.40, basis, sites, box_radius=100.0)
    assert cert.feasible
    for eta1 in (0.0, 0.2, 0.35):
        vals = sites.margins(cert.coeffs, eta1)
        assert vals.min() >= cert.min_margin - 1e-12


def test_scaling_invariance_of_feasible_set(worm_euclid):
    base = worm_reduction_basis(gamma=math.pi, degree=12, spread=0.95)
    scaled = HBasis(n=2, m=base.m, name="scaled",
                    rows=lambda zs: [3.0 * phi for phi in base.rows(zs)])
    sites_base = small_worm_sites(worm_euclid, base, count=50)
    sites_scaled = small_worm_sites(worm_euclid, scaled, count=50)
    for eta in (0.30, 0.70):
        a = feasibility_search(worm_euclid, eta, base, sites_base, box_radius=100.0).feasible
        b = feasibility_search(worm_euclid, eta, scaled, sites_scaled,
                               box_radius=100.0).feasible
        assert a == b


def test_interior_check_ball_examples(ball):
    points = sample_boundary(ball, 6, 0)
    rep = interior_check(ball, None, 0.5, C=0.1, depths=np.geomspace(1e-4, 1e-1, 6), points=points)
    assert rep["positive"] and rep["min_eig"] > 0
    rep0 = interior_check(ball, None, 0.0, C=0.5, depths=np.geomspace(1e-4, 1e-1, 6), points=points)
    assert rep0["positive"]
    with pytest.raises(ValueError, match="rho >= 0"):
        interior_check(ball, None, 0.5, depths=[-1e-3], points=sample_boundary(ball, 2, 0))


@pytest.mark.parametrize("empty", ["depths", "points"])
def test_interior_check_over_zero_samples_raises(ball, empty):
    with pytest.raises(ValueError, match=f"{empty} is empty"):
        interior_check(ball, None, 0.3, **{"points": sample_boundary(ball, 12, 0), empty: []})


def test_interior_identity_matches_direct_jets(ball):
    # expanded-identity matrix vs direct complex Hessian of -(-rho)^eta
    eta = 0.5
    h_field = ScalarField(2, lambda zs: (zs[0].real() * 0.2) ** 2 + zs[1].imag() * 0.1)

    def neg_rho_pow(zs):
        r = jets.abs2(zs[0]) + jets.abs2(zs[1]) - 1.0
        rho = r * jets.exp(-1.0 * h_field.fn(zs))
        return -jets.power(-1.0 * rho, eta)

    direct_field = ScalarField(2, neg_rho_pow)
    from dfindex.boundary import point_at_depth
    from dfindex.fields import complex_hessian

    p = sample_boundary(ball, 1, 21)[0]
    z = point_at_depth(ball, p, 0.05)
    direct = complex_hessian(direct_field, z)
    rho = np.real(ball.r(z)) * math.exp(-np.real(h_field.jet(z, 0).value))
    direct_scaled = direct / (eta * (-rho) ** eta)
    rep = interior_check(ball, h_field, eta, C=0.0, depths=[0.05], points=[z])
    assert rep["rows"][0]["min_eig"] == pytest.approx(
        float(np.linalg.eigvalsh(direct_scaled)[0]), rel=1e-7)


def test_certificate_serialization_roundtrip(worm_euclid):
    basis = worm_reduction_basis(gamma=math.pi, degree=12, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=40)
    cert = feasibility_search(worm_euclid, 0.3, basis, sites, box_radius=100.0)
    blob = cert.to_json_dict(seed=7)
    assert blob["eta"] == 0.3
    assert blob["basis_id"] == basis.name
    assert len(blob["coeffs"]) == basis.m
    assert blob["seed"] == 7
    assert blob["n_sites"] == len(sites)
    assert blob["upper_bound"] == cert.upper_bound and math.isfinite(cert.upper_bound)
    assert blob["iterations"] == cert.iterations > 0
    assert blob["gap"] == cert.upper_bound - cert.min_margin >= 0.0
    multipliers = blob["multipliers"]
    assert len(multipliers["sites"]) == len(sites) and len(multipliers["box"]) == basis.m
    assert estimator.dual_bound(sites, 0.3, multipliers["sites"], multipliers["box"],
                                100.0) == blob["upper_bound"]
    # seeded with a certificate the search exits before any LP: no bound yet
    early = feasibility_search(worm_euclid, 0.3, basis, sites, c0=cert.coeffs, box_radius=100.0)
    assert early.status == "feasible_early_exit" and early.upper_bound == math.inf
    blob = early.to_json_dict()
    assert blob["upper_bound"] is None and blob["gap"] is None and blob["multipliers"] is None
    assert blob["iterations"] == 1 and blob["min_margin"] == early.min_margin
    assert json.loads(json.dumps(blob, allow_nan=False)) == blob


def test_undecided_stage_moves_no_bracket_end(worm_euclid, monkeypatch):
    basis = worm_reduction_basis(gamma=math.pi, degree=12, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=40)
    search = estimator.feasibility_search
    monkeypatch.setattr(estimator, "feasibility_search",
                        lambda *args, **kwargs: search(*args, max_iter=1, **kwargs))
    est = estimator.estimate_index(Problem(worm_euclid, sites, math.inf, 100.0, 1e-4), eta_cap=0.99)
    assert (est.eta_lo, est.eta_hi) == (0.0, 0.99)
    # cap, eta = 0, then the first midpoint, which ends the bisection
    assert [r["eta"] for r in est.records] == [0.99, 0.0, 0.495]
    assert [r["status"] for r in est.records] == ["iteration_cap"] * 3
    assert len(est.warnings) == 3 and all("undecided" in w for w in est.warnings)


def test_an_undecided_eta_zero_stage_below_a_feasible_one_is_not_non_monotone(worm_euclid, monkeypatch):
    basis = worm_reduction_basis(gamma=math.pi, degree=12, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=40)
    search = estimator.feasibility_search
    monkeypatch.setattr(estimator, "feasibility_search",
                        lambda domain, eta, *args, **kwargs:
                        search(domain, eta, *args, max_iter=1 if eta == 0.0 else 400, **kwargs))
    est = estimator.estimate_index(Problem(worm_euclid, sites, math.inf, 100.0, 1e-4), eta_cap=0.99)
    assert est.certificates[0.0].status == "iteration_cap" and not est.certificates[0.0].decided
    assert est.certificates[0.2475].feasible
    # no stage was certified infeasible below a feasible one: the only warning is the undecided stage
    assert est.warnings == ["eta = 0.0 undecided (iteration_cap); it moves neither end of the bracket"]


def test_stages_started_on_the_upper_stage_path_take_fewer_steps(worm_euclid, monkeypatch):
    basis = worm_reduction_basis(gamma=math.pi, degree=12, spread=0.95)
    sites = small_worm_sites(worm_euclid, basis, count=40)
    warm = estimator.estimate_index(Problem(worm_euclid, sites, math.inf, 100.0, 1e-4), eta_cap=0.99)
    search = estimator.feasibility_search
    monkeypatch.setattr(estimator, "feasibility_search",
                        lambda *args, start=None, **kwargs: search(*args, **kwargs))
    cold = estimator.estimate_index(Problem(worm_euclid, sites, math.inf, 100.0, 1e-4), eta_cap=0.99)
    assert (warm.eta_lo, warm.eta_hi) == (cold.eta_lo, cold.eta_hi)
    assert [(r["eta"], r["status"]) for r in warm.records] == \
        [(r["eta"], r["status"]) for r in cold.records]
    assert all(cert.decided for cert in warm.certificates.values())
    steps = [sum(cert.iterations for cert in est.certificates.values()) for est in (warm, cold)]
    assert steps[0] < steps[1]


def test_interior_check_does_not_certify_over_a_nan_sample(ball, monkeypatch):
    real = estimator.wirtinger_table
    calls = []

    def nan_hessian_at_sample_1(jet, n):
        table = real(jet, n)
        calls.append(1)
        table.w2 = table.w2.copy()
        table.w2[..., 1] = np.nan       # the batch axis is last: sample 1's column
        return table

    monkeypatch.setattr(estimator, "wirtinger_table", nan_hessian_at_sample_1)
    h_field = ScalarField(2, lambda zs: zs[0].real() * 0.1)
    rep = interior_check(ball, h_field, 0.3, depths=[1e-3, 1e-2], points=sample_boundary(ball, 2, 0))
    assert len(calls) == 1              # one table of h serves every sample
    assert len(rep["rows"]) == 4
    assert math.isnan(rep["rows"][1]["min_eig"])
    assert all(r["min_eig"] > 0 for i, r in enumerate(rep["rows"]) if i != 1)
    assert math.isnan(rep["min_eig"]) and rep["positive"] is False
