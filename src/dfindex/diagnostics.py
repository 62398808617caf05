"""Invariant suites: randomized identity checks shared by tests and selftest.

Each suite returns a list of :class:`CheckRecord`; a record fails when its
residual exceeds the stated tolerance.  Sample counts are parameters, and
:func:`run_all` sets the small counts of the command-line selftest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import forms, jets
from .jets import _vmul
from .boundary import (
    NormalFrame,
    levi_data,
    normal_frame,
    sample_boundary,
    transport_along_normal,
)
from .domains import ball_domain
from .estimator import geometric_margin, vectorfield_margin
from .fields import ScalarField, wirtinger_table
from .geometry import (
    CTVector,
    _abs,
    _dot,
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
    torsion_from_fields,
)
from .worm import (WormParams, riccati_threshold, s_gamma_reference, sgamma_patch_tangent,
                   sgamma_points, worm_domain)

__all__ = [
    "CheckRecord",
    "random_scalar_field",
    "random_metric",
    "jets_suite",
    "h3_identity_suite",
    "structural_suite",
    "boundary_suite",
    "forms_suite",
    "worm_reference_suite",
    "margin_equivalence_suite",
    "riccati_suite",
    "run_all",
]


@dataclass
class CheckRecord:
    suite: str
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""

    def row(self):
        return {
            "suite": self.suite,
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tol": self.tol,
            "detail": self.detail,
        }


def _worst(*values):
    """The largest residual, or NaN if any is NaN (``max`` drops a NaN after its first item)."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values)


def _rec(suite, name, residual, tol, detail=""):
    return CheckRecord(suite=suite, name=name, passed=bool(residual <= tol),
                       residual=float(residual), tol=float(tol), detail=detail)


# ----------------------------------------------------------------------
# random smooth data
# ----------------------------------------------------------------------

def random_scalar_field(n, rng, terms=4):
    """Random bounded real-analytic field: polynomial/trig mix in Re, Im z."""
    coeffs = rng.standard_normal(terms)
    picks = rng.integers(0, n, size=(terms, 2))
    kinds = rng.integers(0, 4, size=terms)

    def fn(zs):
        out = jets.Jet.constant(0.0, 2 * n, zs[0].order)
        for c, (j, k), kind in zip(coeffs, picks, kinds):
            xj, yk = zs[j].real(), zs[k].imag()
            if kind == 0:
                term = xj * yk
            elif kind == 1:
                term = jets.sin(xj) * jets.cos(yk)
            elif kind == 2:
                term = xj * xj * yk
            else:
                term = jets.exp(jets.sin(yk) * 0.5) * xj
            out = out + float(c) * term
        return out

    return ScalarField(n, fn, name="random")


def random_metric(n, rng):
    """Hermitian positive-definite metric field near a constant base (perturbation size 0.15)."""
    eps = 0.15
    base = np.eye(n) * (1.0 + rng.random(n))
    upper = {}
    for j in range(n):
        for k in range(j, n):
            upper[(j, k)] = (random_scalar_field(n, rng, terms=2),
                             random_scalar_field(n, rng, terms=2))

    def fn(zs):
        g = [[None] * n for _ in range(n)]
        for (j, k), (a, b) in upper.items():
            if j == k:
                g[j][j] = jets.Jet.constant(base[j, j], 2 * n, zs[0].order) + eps * a.fn(zs)
            else:
                zero, pert = jets.Jet.constant(0.0, 2 * n, zs[0].order), a.fn(zs) + 1j * b.fn(zs)
                g[j][k], g[k][j] = zero + eps * pert, zero + eps * pert.conj()
        return g

    return MetricField(n, fn, name="random")


def _random_point(n, rng):
    return 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _random_vec(n, rng):
    return CTVector.holo(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _fiber(count):
    """The fiber direction d/dz_2 at each of ``count`` points, the null direction on S_gamma."""
    return CTVector.holo(np.broadcast_to([0.0, 1.0 + 0.0j], (count, 2)))


def _apply_vec(v, table):
    n = table.n
    return complex(v.h @ table.w1[:n] + v.a @ table.w1[n:])


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def jets_suite(count=200, seed=0):
    n = 2
    rng = np.random.default_rng(seed)
    out = []
    max_asym = 0.0
    for _ in range(count):
        f = random_scalar_field(n, rng)
        jet = f.jet(_random_point(n, rng), 3)
        h_asym = float(np.max(np.abs(jet.hess - jet.hess.T)))
        t = jet.third
        t_asym = _worst(*(float(np.max(np.abs(t - np.transpose(t, p))))
                          for p in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))))
        max_asym = _worst(max_asym, h_asym, t_asym)
    out.append(_rec("jets", "mixed_partial_symmetry_exact", max_asym, 0.0))

    worst_g, worst_h = 0.0, 0.0
    for _ in range(10):
        f = random_scalar_field(n, rng)
        z = _random_point(n, rng)
        jet = f.jet(z, 2)
        from .fields import complex_point, real_coords

        x0 = real_coords(z)
        h = 1e-4
        for i in range(2 * n):
            e = np.zeros_like(x0)
            e[i] = h
            fp, fm = f(complex_point(x0 + e)), f(complex_point(x0 - e))
            fd = (fp - fm) / (2 * h)
            scale = 1.0 + abs(jet.grad[i])
            worst_g = _worst(worst_g, abs(fd - jet.grad[i]) / scale)
            f0 = f(complex_point(x0))
            fd2 = (fp - 2 * f0 + fm) / h**2
            worst_h = _worst(worst_h, abs(fd2 - jet.hess[i, i]) / (1.0 + abs(jet.hess[i, i])))
    out.append(_rec("jets", "finite_difference_gradient", worst_g, 1e-8))
    out.append(_rec("jets", "finite_difference_hessian", worst_h, 1e-5))

    worst = 0.0
    for _ in range(20):
        f = random_scalar_field(n, rng)
        g = random_scalar_field(n, rng)
        field = ScalarField(n, lambda zs, f=f, g=g: f.fn(zs) + 1j * g.fn(zs))
        z = _random_point(n, rng)
        jet = field.jet(z, 3)
        cjet = ScalarField(n, lambda zs, fl=field: fl.fn(zs).conj()).jet(z, 3)
        ta, tb = wirtinger_table(jet, n), wirtinger_table(cjet, n)
        worst = _worst(worst, float(np.max(np.abs(tb.w2 - np.roll(ta.w2.conj(), n, axis=(0, 1))))))
    out.append(_rec("jets", "conjugation_swaps_wirtinger_indices", worst, 1e-13))
    return out


def h3_identity_suite(count=200, seed=1):
    n = 2
    rng = np.random.default_rng(seed)
    worst = {"first_unmixed": 0.0, "first_mixed": 0.0, "second_mixed": 0.0,
             "third_unmixed": 0.0, "cycle": 0.0}
    for _ in range(count):
        metric = random_metric(n, rng)
        f = random_scalar_field(n, rng)
        z = _random_point(n, rng)
        lvec, zvec, wvec = (_random_vec(n, rng) for _ in range(3))
        wbar = wvec.conj()
        fr = chern_frame(metric, z, order=2)
        table = wirtinger_table(f.jet(z, 3), n)
        hc = hess_tensor(table, fr)
        h3, hess = partial(h3_op, h3_tensor(table, fr, hc)), partial(hess_op, hc)
        t_lz = torsion(fr, lvec, zvec)
        r1 = abs(h3(lvec, zvec, wbar) - h3(zvec, lvec, wbar) + hess(t_lz, wbar))
        rw = curvature(fr, wbar, zvec, lvec)
        r2 = abs(h3(wbar, zvec, lvec) - h3(zvec, wbar, lvec) + _apply_vec(rw, table))
        r3 = abs(h3(lvec, zvec, wbar) - h3(lvec, wbar, zvec))
        t_zl = torsion(fr, zvec, lvec)
        r4 = abs(h3(zvec, wbar, lvec) - h3(lvec, wbar, zvec) + hess(wbar, t_zl))
        xvec = 0.5 * (lvec + lvec.conj())
        rc = curvature(fr, zvec, wbar, lvec.conj())
        cyc = abs(h3(zvec, wbar, xvec) - h3(xvec, zvec, wbar)
                  + 0.5 * (hess(wbar, t_zl) + _apply_vec(rc, table)
                           + hess(zvec, torsion(fr, wbar, lvec.conj()))))
        for key, val in zip(worst, (r1, r2, r3, r4, cyc)):
            worst[key] = _worst(worst[key], val)
    return [_rec("h3", f"identity_{k}", v, 1e-8) for k, v in worst.items()]


def structural_suite(count=50, seed=2):
    n = 2
    rng = np.random.default_rng(seed)
    out = []
    worst_t, worst_hsym, worst_ch, worst_compat, worst_leib = 0.0, 0.0, 0.0, 0.0, 0.0
    worst_tdef, worst_curv_im = 0.0, 0.0
    for _ in range(count):
        metric = random_metric(n, rng)
        f = random_scalar_field(n, rng)
        z = _random_point(n, rng)
        fr = chern_frame(metric, z, order=2)
        table = wirtinger_table(f.jet(z, 3), n)
        zvec, wvec = _random_vec(n, rng), _random_vec(n, rng)

        tv = torsion(fr, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()))
        worst_t = _worst(worst_t, float(np.max(np.abs(tv.coeffs))))

        hc = hess_tensor(table, fr)
        lhs = hess_op(hc, zvec, wvec) - hess_op(hc, wvec, zvec)
        tzw = torsion(fr, zvec, wvec)
        worst_hsym = _worst(worst_hsym, abs(lhs + _apply_vec(tzw, table)))

        mixed = hess_op(hc, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()))
        direct = complex(zvec.h @ table.mixed_hessian @ wvec.h.conj())
        worst_ch = _worst(worst_ch, abs(mixed - direct))

        worst_compat = _worst(worst_compat, metric_compat_residual(metric, z))

        hf = VectorField.from_holo([random_scalar_field(n, rng, terms=2) for _ in range(n)])
        sf = random_scalar_field(n, rng, terms=2)
        direction = _random_vec(n, rng)
        scaled = VectorField(n, h_fields=[
            ScalarField(n, lambda zs, hfi=hfield, s=sf: s.fn(zs) * hfi.fn(zs))
            for hfield in hf.h_fields])
        lhsv = covariant_derivative(fr, direction, scaled)
        stab = wirtinger_table(sf.jet(z, 1), n)
        sval = stab.value
        xs = complex(direction.coeffs @ stab.w1)
        rhsv = sval * covariant_derivative(fr, direction, hf) + xs * hf.value(z)
        worst_leib = _worst(worst_leib, float(np.max(np.abs((lhsv - rhsv).coeffs))))

        xfield = VectorField.from_holo([random_scalar_field(n, rng, terms=2) for _ in range(n)])
        yfield = VectorField.from_holo([random_scalar_field(n, rng, terms=2) for _ in range(n)])
        tdef = torsion_from_fields(fr, xfield, yfield)
        tten = torsion(fr, xfield.value(z), yfield.value(z))
        worst_tdef = _worst(worst_tdef, float(np.max(np.abs((tdef - tten).coeffs))))

        # <R(Z, Zbar)W, W> is real by Hermitian symmetry
        val = inner(fr.g, curvature(fr, zvec, CTVector.anti(zvec.h.conj()), wvec), wvec)
        worst_curv_im = _worst(worst_curv_im, abs(val.imag) / (1.0 + abs(val.real)))
    out.append(_rec("structural", "torsion_mixed_type_vanishes", worst_t, 1e-10))
    out.append(_rec("structural", "hessian_antisymmetry_is_torsion", worst_hsym, 1e-9))
    out.append(_rec("structural", "complex_hessians_equal", worst_ch, 1e-10))
    out.append(_rec("structural", "metric_compatibility", worst_compat, 1e-9))
    out.append(_rec("structural", "covariant_derivative_leibniz", worst_leib, 1e-9))
    out.append(_rec("structural", "torsion_definition_vs_tensor", worst_tdef, 1e-9))
    out.append(_rec("structural", "curvature_contraction_real", worst_curv_im, 1e-9))
    return out


def boundary_suite(samples=20):
    out = []
    seed = 3
    ball = ball_domain()
    worm_e = worm_domain(WormParams(gamma=math.pi), metric="euclidean")
    rng = np.random.default_rng(seed)
    worst_frame, worst_null, worst_levi_neg, null_pairs = 0.0, 0.0, 0.0, 0
    for domain, special in ((ball, []), (worm_e, sgamma_points(worm_e.params["worm"], samples))):
        # the random sample has no null direction, so the null-space identity also runs
        # at the worm's S_gamma points; the frame and pseudoconvexity checks keep the sample
        fr = normal_frame(domain, sample_boundary(domain, samples, seed) + special)
        for dr_l, l2, dbar in zip(fr.dr(fr.L)[:samples].tolist(), fr.norm2(fr.L)[:samples].tolist(),
                                  fr.dbar_norm[:samples].tolist()):
            worst_frame = _worst(worst_frame, abs(dr_l - 1.0), abs(math.sqrt(l2) - 1.0 / dbar))
        ld = levi_data(fr)
        worst_levi_neg = _worst(worst_levi_neg, 0.0, *(-ld.eigenvalues[:samples, 0]).tolist())
        at, zvec = ld.pairs(ld.null)
        if len(at):
            # each null (point, direction) pair against 20 random W, all on one frame
            rows = np.repeat(np.arange(len(at)), 20)
            w = CTVector.holo(np.array([_random_vec(domain.n, rng).h for _ in rows]))
            zv = CTVector.holo(zvec.h[rows])
            pf = NormalFrame(domain, fr.z[at[rows]], r_order=2)
            resid = _abs(pf.levi(zv.h, w.h) - _vmul(forms.alpha(pf, zv), np.conj(_dot(pf.u, w.h))))
            scale = np.sqrt(pf.norm2(zv)) * np.sqrt(pf.norm2(w))
            worst_null = _worst(worst_null, *(resid / np.maximum(scale, 1e-12)).tolist())
            null_pairs += len(at)
    out.append(_rec("boundary", "frame_identities", worst_frame, 1e-10))
    out.append(_rec("boundary", "null_space_identity", worst_null, 1e-6,
                    detail=f"null pairs checked: {null_pairs}"))
    out.append(_rec("boundary", "pseudoconvexity_monitor", worst_levi_neg, 1e-7))

    base = normal_frame(ball, sample_boundary(ball, 1, seed)[0])
    path = transport_along_normal(base, levi_data(base).basis[0], 0.1, steps=16)
    out.append(_rec("boundary", "transport_r_residual", float(np.max(np.abs(path.r_residual))), 1e-8))
    out.append(_rec("boundary", "transport_tangency", float(np.max(path.tangency)), 1e-8))
    out.append(_rec("boundary", "transport_norm_preserved", float(np.max(path.norm_drift)), 1e-8))
    return out


def forms_suite():
    out = []
    seed = 4
    params = WormParams(gamma=math.pi)
    worm_e = worm_domain(params, metric="euclidean")
    worm_k = worm_domain(params, metric="worm_kahler")
    rng = np.random.default_rng(seed)

    worst_inv_a, worst_inv_b, worst_real, worst_cross_a = 0.0, 0.0, 0.0, 0.0
    worst_nullf, worst_unm, worst_geo = 0.0, 0.0, 0.0
    points = sgamma_points(params, 12, spread=0.85)
    fe, fk = normal_frame(worm_e, points), normal_frame(worm_k, points)
    zf = _fiber(len(points))
    values = (forms.alpha(fe, zf), forms.alpha(fk, zf), forms.beta_mixed(fe, zf, zf),
              forms.beta_mixed(fk, zf, zf), forms.alpha(fe, zf.conj()), forms.alpha_geometric(fe, zf),
              forms.beta_mixed_nullspace(fe, zf, zf), forms.beta_unmixed(fe, zf, zf),
              forms.beta_geometric(fk, zf))
    for a_e, a_k, b_e, b_k, a_e_bar, a_geo, b_null, b_unm, b_geo in zip(*(v.tolist() for v in values)):
        worst_inv_a = _worst(worst_inv_a, abs(a_e - a_k))
        worst_inv_b = _worst(worst_inv_b, abs((1j * b_e).real - (1j * b_k).real))
        worst_real = _worst(worst_real, abs((1j * b_e).imag), abs(a_e_bar - np.conj(a_e)))
        worst_cross_a = _worst(worst_cross_a, abs(a_e - a_geo))
        worst_nullf = _worst(worst_nullf, abs(b_e - b_null))
        worst_unm = _worst(worst_unm, abs(b_unm))
        worst_geo = _worst(worst_geo, abs(b_geo - (-1j * b_k).real))
    rng.standard_normal((len(points), 4))  # unused draws that fix the random stream of the checks below
    out.append(_rec("forms", "alpha_metric_invariance", worst_inv_a, 1e-6))
    out.append(_rec("forms", "beta_metric_invariance", worst_inv_b, 1e-6))
    out.append(_rec("forms", "reality", worst_real, 1e-10))
    out.append(_rec("forms", "alpha_vs_alpha_geometric", worst_cross_a, 1e-8))
    out.append(_rec("forms", "beta_mixed_vs_nullspace_formula", worst_nullf, 1e-8))
    out.append(_rec("forms", "beta_unmixed_null_pairs", worst_unm, 1e-8))
    out.append(_rec("forms", "beta_geometric_vs_mixed", worst_geo, 1e-7))

    ball = ball_domain()
    worst_weak = 0.0
    for p in sample_boundary(ball, 3, seed):
        fb = normal_frame(ball, p)
        wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        ru, rm = forms.beta_weak_residual(fb, levi_data(fb).basis[0], wv)
        worst_weak = _worst(worst_weak, ru, rm)
    zv = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
    for p in sgamma_points(params, 2, spread=0.5):
        ru, rm = forms.beta_weak_residual(normal_frame(worm_e, p), zv, zv)
        worst_weak = _worst(worst_weak, ru, rm)
    out.append(_rec("forms", "weak_identity_beta_vs_grid_dalpha", worst_weak, 1e-5))

    patch = sgamma_patch_tangent(worm_e)
    resid = forms.pullback_alpha_dclosed(worm_e, patch)
    out.append(_rec("forms", "stokes_circulation_density", resid, 1e-6))
    period = forms.loop_alpha_integral(worm_e, patch)
    out.append(_rec("forms", "loop_period_vs_oracle", abs(period - (-4.0 * math.pi)), 1e-6,
                    detail=f"period={period:.9f}"))

    kd = kahler_defect(worm_k.metric, _annulus_points(params, 100, seed))
    out.append(_rec("forms", "kahler_d_omega_zero", kd, 1e-8))
    return out


def _annulus_points(params, count, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-params.x_max, params.x_max, count)
    a1 = rng.uniform(0, 2 * math.pi, count)
    a2 = rng.uniform(0, 2 * math.pi, count)
    r1 = 1.8 * np.sqrt(rng.random(count))
    return np.stack([r1 * np.exp(1j * a1), np.exp(xs / 2.0) * np.exp(1j * a2)], axis=1)


def _kahler_worm_fiber(count):
    """On the Kaehler worm(pi) at t = 1.2: its parameters, ``count`` S_gamma points, one frame over
    them and the fiber direction at each."""
    domain = worm_domain(WormParams(gamma=math.pi, t=1.2), metric="worm_kahler")
    wp = domain.params["worm"]
    points = sgamma_points(wp, count, spread=0.9)
    return wp, points, normal_frame(domain, points), _fiber(len(points))


def worm_reference_suite(count=50):
    wp, points, fr, zvec = _kahler_worm_fiber(count)
    worst = dict(alpha=0.0, curvature=0.0, sff_j=0.0, sff_zz=0.0, margin=0.0,
                 nabla=0.0, nabla_bar=0.0)
    eta = 0.4
    values = (forms.alpha(fr, zvec), curvature_contraction(fr.chern, zvec, fr.nu_C),
              fr.hess_r(zvec, fr.nu_R.J()), fr.hess_r(zvec, zvec), fr.norm2(fr.X),
              geometric_margin(fr, zvec, eta))
    nb, nl = fr.nabla_L(CTVector.anti(zvec.h)).h, fr.nabla_L(zvec).h
    rel = lambda a, b: abs(a - b) / (1.0 + abs(b))
    for k, (p, a, curv, h_j, h_zz, x2, margin) in enumerate(zip(points, *(v.tolist() for v in values))):
        ref = s_gamma_reference(wp, p.z[1])
        worst["alpha"] = _worst(worst["alpha"], rel(a, ref.alpha))
        worst["curvature"] = _worst(worst["curvature"], rel(curv, ref.curvature))
        worst["sff_j"] = _worst(worst["sff_j"], rel(abs(h_j) ** 2 * x2, ref.sff_JnuR_sq))
        worst["sff_zz"] = _worst(worst["sff_zz"], abs(h_zz) * x2)
        worst["margin"] = _worst(worst["margin"], rel(margin, ref.margin(eta)))
        worst["nabla_bar"] = _worst(worst["nabla_bar"],
                                    rel(nb[k, 0] / fr.L.h[k, 0], ref.nabla_bar_factor))
        worst["nabla"] = _worst(worst["nabla"], rel(nl[k, 0] / fr.L.h[k, 0], ref.nabla_factor))
    return [_rec("worm_reference", k, v, 1e-6) for k, v in worst.items()]


def margin_equivalence_suite(count=30):
    _, _, fr, zvec = _kahler_worm_fiber(count)
    worst = 0.0
    for eta in (0.0, 0.25, 0.4):
        diff = geometric_margin(fr, zvec, eta) - vectorfield_margin(fr, zvec, eta)
        worst = _worst(worst, *np.abs(diff).tolist())
    return [_rec("margins", "geometric_equals_vectorfield", worst, 1e-8)]


_RICCATI_GAMMAS = (0.6 * math.pi, math.pi, 1.5 * math.pi, 2 * math.pi)


def riccati_suite():
    out = []
    for g in _RICCATI_GAMMAS:
        th = riccati_threshold(g)
        out.append(_rec("riccati", f"threshold_gamma_{g:.4f}", abs(th - math.pi / (2 * g)), 1e-3,
                        detail=f"threshold={th:.6f}"))
    return out


def run_all():
    """Every invariant suite at the sample counts of the CLI selftest."""
    records = []
    records += jets_suite(count=100)
    records += h3_identity_suite(count=50)
    records += structural_suite(count=15)
    records += boundary_suite(samples=8)
    records += forms_suite()
    records += worm_reference_suite(count=12)
    records += margin_equivalence_suite(count=8)
    records += riccati_suite()
    return records
