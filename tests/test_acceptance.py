"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np

from dfindex import forms
from dfindex.boundary import (
    find_collar_depth,
    levi_data,
    normal_frame,
    sample_boundary,
)
from dfindex.diagnostics import (
    h3_identity_suite,
    margin_equivalence_suite,
    random_metric,
    random_scalar_field,
    worm_reference_suite,
)
from dfindex.estimator import (
    Problem,
    boundary_margin,
    collect_sites,
    estimate_index,
    feasibility_search,
    geometric_margin,
    interior_check,
    vectorfield_margin,
)
from dfindex.geometry import CTVector, chern_frame, kahler_defect, torsion
from dfindex.worm import (WormParams, riccati_threshold, sgamma_patch_tangent, sgamma_points,
                         worm_domain, worm_reduction_basis)

Z_FIBER = CTVector.holo([0.0, 1.0])


def _report(num, desc, passed, detail=""):
    line = f"ACCEPTANCE {num:>2} [{'PASS' if passed else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def _worm_estimate(gamma):
    domain = worm_domain(WormParams(gamma=gamma), metric="euclidean")
    wp = domain.params["worm"]
    basis = worm_reduction_basis(gamma=gamma, degree=40, spread=0.99)
    points = sample_boundary(domain, 20, 0) + sgamma_points(wp, 360, spread=0.99)
    return estimate_index(Problem(domain, *collect_sites(domain, points, basis), 50.0, 1e-4))


def test_01_worm_index_reproduction():
    start = time.time()
    est_pi = _worm_estimate(math.pi)
    t_pi = time.time() - start
    ok_pi = (est_pi.eta_lo >= 0.45 and est_pi.eta_hi <= 0.55
             and est_pi.eta_lo <= 0.5 <= est_pi.eta_hi and t_pi <= 300.0)
    start = time.time()
    est_2pi = _worm_estimate(2.0 * math.pi)
    t_2pi = time.time() - start
    ok_2pi = (est_2pi.eta_lo >= 0.20 and est_2pi.eta_hi <= 0.30
              and est_2pi.eta_lo <= 0.25 <= est_2pi.eta_hi and t_2pi <= 300.0)
    _report(1, "worm index bracket reproduces pi/(2 gamma)", ok_pi and ok_2pi,
            f"gamma=pi: [{est_pi.eta_lo:.4f}, {est_pi.eta_hi:.4f}] in {t_pi:.0f}s; "
            f"gamma=2pi: [{est_2pi.eta_lo:.4f}, {est_2pi.eta_hi:.4f}] in {t_2pi:.0f}s")


def _shot_riccati_threshold(gamma):
    """The threshold k*/(1 + k*) with k* = X/a, where X is the blow-up point of v' = 1 + v^2,
    v(0) = 0, found by integrating until v reaches 1e8: a reference that is not the closed form."""
    from scipy.integrate import solve_ivp

    def blow_up(_, v):
        return v[0] - 1e8

    blow_up.terminal = True
    sol = solve_ivp(lambda _, v: [1.0 + v[0] ** 2], (0.0, math.pi), [0.0], method="RK45",
                    rtol=1e-10, atol=1e-12, events=blow_up, max_step=math.pi / 50.0)
    k_star = sol.t_events[0][0] / (gamma - math.pi / 2)
    return k_star / (1.0 + k_star)


def test_02_riccati_threshold():
    start = time.time()
    worst = 0.0
    details = []
    for gamma in (0.6 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi):
        th = riccati_threshold(gamma)
        err = abs(th - _shot_riccati_threshold(gamma))
        worst = max(worst, err)
        details.append(f"{gamma:.3f}:{th:.5f}")
    elapsed = time.time() - start
    _report(2, "Riccati reduction threshold equals pi/(2 gamma) within 1e-3",
            worst <= 1e-3 and elapsed < 60.0,
            f"max err {worst:.2e}, {elapsed:.1f}s, " + " ".join(details))


def test_03_annulus_closed_forms():
    records = worm_reference_suite(count=50)
    worst = max(r.residual for r in records)
    _report(3, "engine matches annulus closed forms to 1e-6 relative at 50 points",
            all(r.passed for r in records), f"worst relative error {worst:.2e}")


def test_04_h3_identity_suite():
    records = h3_identity_suite(count=200, seed=17)
    worst = max(r.residual for r in records)
    _report(4, "all four H3 symmetries and the cycle identity over 200 random instances",
            all(r.passed for r in records), f"worst residual {worst:.2e}")


def test_05_structural_identities(ball, worm_euclid, worm_kahler):
    rng = np.random.default_rng(23)
    worst_torsion = 0.0
    worst_hess = 0.0
    for _ in range(30):
        metric = random_metric(2, rng)
        z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        fr = chern_frame(metric, z, order=1)
        zvec = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        wvec = CTVector.anti(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        worst_torsion = max(worst_torsion,
                            float(np.max(np.abs(torsion(fr, zvec, wvec).coeffs))))
        f = random_scalar_field(2, rng)
        from dfindex.fields import wirtinger_table
        from dfindex.geometry import hess_op, hess_tensor

        table = wirtinger_table(f.jet(z, 2), 2)
        w2 = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        mixed = hess_op(hess_tensor(table, fr), zvec, w2.conj())
        direct = complex(zvec.h @ table.mixed_hessian @ w2.h.conj())
        worst_hess = max(worst_hess, abs(mixed - direct))

    worst_frame = 0.0
    for domain in (ball, worm_euclid):
        for p in sample_boundary(domain, 15, 31):
            fr = normal_frame(domain, p)
            worst_frame = max(worst_frame, abs(fr.dr(fr.L) - 1.0),
                              abs(math.sqrt(fr.norm2(fr.L)) - 1.0 / fr.dbar_norm))

    wp = worm_kahler.params["worm"]
    rng2 = np.random.default_rng(5)
    worst_kahler = 0.0
    for _ in range(100):
        x = rng2.uniform(-wp.x_max, wp.x_max)
        z = np.array([1.5 * np.exp(1j * rng2.uniform(0, 2 * math.pi)),
                      math.exp(x / 2) * np.exp(1j * rng2.uniform(0, 2 * math.pi))])
        worst_kahler = max(worst_kahler, kahler_defect(worm_kahler.metric, z))
    ok = (worst_torsion <= 1e-10 and worst_hess <= 1e-10
          and worst_frame <= 1e-10 and worst_kahler <= 1e-8)
    _report(5, "structural identities: torsion, mixed Hessians, frames, d omega",
            ok, f"torsion {worst_torsion:.1e}, hessians {worst_hess:.1e}, "
                f"frames {worst_frame:.1e}, d omega {worst_kahler:.1e}")


def test_06_margin_equivalence(worm_kahler):
    records = margin_equivalence_suite(count=40)
    worst = max(r.residual for r in records)
    # also at randomly phased annulus sites with several exponents
    wp = worm_kahler.params["worm"]
    for p in sgamma_points(wp, 10, spread=0.85):
        fr = normal_frame(worm_kahler, p)
        for eta in (0.1, 0.4):
            gm = geometric_margin(fr, Z_FIBER, eta)
            vm = vectorfield_margin(fr, Z_FIBER, eta)
            worst = max(worst, abs(gm - vm))
    _report(6, "extrinsic-curvature margin equals normal-field margin at null sites",
            worst <= 1e-8, f"worst difference {worst:.2e}")


def test_07_alpha_closed_but_not_exact(worm_euclid):
    patch = sgamma_patch_tangent(worm_euclid)
    resid = forms.pullback_alpha_dclosed(patch)
    period = forms.loop_alpha_integral(patch)
    oracle = -4.0 * math.pi
    ok = resid <= 1e-6 and abs(period - oracle) <= 1e-6
    _report(7, "pulled-back alpha is d-closed (Stokes) with nontrivial period",
            ok, f"circulation density {resid:.2e}, period {period:.9f} vs {oracle:.9f}")


def test_08_beta_consistency(worm_euclid, worm_kahler, ball):
    rng = np.random.default_rng(41)
    wp = worm_euclid.params["worm"]
    worst_null_route = 0.0
    worst_unmixed = 0.0
    worst_geo = 0.0
    for p in sgamma_points(wp, 12, spread=0.85):
        fe, fk = normal_frame(worm_euclid, p), normal_frame(worm_kahler, p)
        b = forms.beta_mixed(fe, Z_FIBER, Z_FIBER)
        worst_null_route = max(worst_null_route,
                               abs(b - forms.beta_mixed_nullspace(fe, Z_FIBER, Z_FIBER)))
        worst_unmixed = max(worst_unmixed, abs(forms.beta_unmixed(fe, Z_FIBER, Z_FIBER)))
        bk = forms.beta_mixed(fk, Z_FIBER, Z_FIBER)
        worst_geo = max(worst_geo, abs(forms.beta_geometric(fk, Z_FIBER)
                                       - float(np.real(-1j * bk))))
    worst_weak = 0.0
    for p in sample_boundary(ball, 3, 43):
        fr = normal_frame(ball, p)
        zv = levi_data(fr).basis[0]
        wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        ru, rm = forms.beta_weak_residual(fr, zv, wv)
        worst_weak = max(worst_weak, ru, rm)
    for p in sgamma_points(wp, 3, spread=0.6):
        ru, rm = forms.beta_weak_residual(normal_frame(worm_euclid, p), Z_FIBER, Z_FIBER)
        worst_weak = max(worst_weak, ru, rm)
    ok = (worst_null_route <= 1e-8 and worst_unmixed <= 1e-8
          and worst_geo <= 1e-7 and worst_weak <= 1e-5)
    _report(8, "beta consistency: null-space route, unmixed vanishing, geometric, weak identity",
            ok, f"route {worst_null_route:.1e}, unmixed {worst_unmixed:.1e}, "
                f"geometric {worst_geo:.1e}, weak {worst_weak:.1e}")


def test_09_metric_invariance(worm_euclid, worm_kahler):
    wp = worm_euclid.params["worm"]
    worst = 0.0
    for p in sgamma_points(wp, 25, spread=0.9):
        fe, fk = normal_frame(worm_euclid, p), normal_frame(worm_kahler, p)
        a_e = forms.alpha(fe, Z_FIBER)
        a_k = forms.alpha(fk, Z_FIBER)
        b_e = 1j * forms.beta_mixed(fe, Z_FIBER, Z_FIBER)
        b_k = 1j * forms.beta_mixed(fk, Z_FIBER, Z_FIBER)
        worst = max(worst, abs(a_e - a_k), abs(complex(b_e).real - complex(b_k).real))
    _report(9, "alpha and i beta agree between metrics on the Levi null space",
            worst <= 1e-6, f"worst difference {worst:.2e}")


def test_10_collar_bounds(ball, worm_euclid):
    eps = 0.1
    wp = worm_euclid.params["worm"]
    ball_frames = [normal_frame(ball, p) for p in sample_boundary(ball, 5, 47)]
    ball_sites = [(fr, levi_data(fr).basis[0]) for fr in ball_frames]
    delta_ball, reports_ball = find_collar_depth(ball_sites, eps, delta0=0.05, steps=10)
    worm_sites = [(normal_frame(worm_euclid, p), Z_FIBER) for p in sgamma_points(wp, 5, spread=0.8)]
    delta_worm, reports_worm = find_collar_depth(worm_sites, eps, delta0=0.02, steps=10)
    n_samples = sum(len(r["rows"]) for r in reports_ball + reports_worm)
    ok = (all(r["holds"] for r in reports_ball + reports_worm) and n_samples >= 100)
    _report(10, "collar Levi-form bounds hold two-sided at 100 sampled (P, Z, t)",
            ok, f"delta(eps={eps}) ball {delta_ball:g}, worm {delta_worm:g}, "
                f"{n_samples} samples")


def test_11_interior_boundary_consistency(worm_euclid):
    eta = 0.4
    wp = worm_euclid.params["worm"]
    basis = worm_reduction_basis(gamma=wp.gamma, degree=40, spread=0.99)
    points = (sample_boundary(worm_euclid, 10, 0)
              + sgamma_points(wp, 360, spread=0.99)
              + sgamma_points(wp, 64, spread=0.999))
    sites, _ = collect_sites(worm_euclid, points, basis)
    cert = feasibility_search(worm_euclid, eta, basis, sites, box_radius=50.0)
    assert cert.feasible
    h_field = basis.h_field(cert.coeffs)
    rep = interior_check(worm_euclid, h_field, eta, C=0.0,
                         depths=np.geomspace(1e-4, 1e-2, 7), points=sample_boundary(worm_euclid, 10, 3))
    # discrete necessary direction: the certified h keeps nonnegative boundary
    # margins at fresh null sites
    fresh = sgamma_points(wp, 20, spread=0.95)
    min_margin = min(boundary_margin(worm_euclid, p, Z_FIBER, basis, cert.coeffs, eta)
                     for p in fresh)
    ok = rep["positive"] and min_margin >= 0.0
    _report(11, "eta=0.4 certificate h is strictly plurisubharmonic on the collar",
            ok, f"interior min eig {rep['min_eig']:.3e}, "
                f"fresh-site margin {min_margin:.3e}")
