"""Invariant suites: randomized identity checks shared by tests and selftest.

Each suite returns a list of :class:`CheckRecord`; a record fails when its
residual exceeds the stated tolerance.  Sample counts are parameters so the
command-line selftest can run reduced versions of the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forms, jets
from .boundary import (
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
    MetricField,
    VectorField,
    chern_frame,
    curvature,
    curvature_contraction,
    h3_op,
    hess_op,
    kahler_defect,
    metric_compat_residual,
    torsion,
    torsion_from_fields,
)
from .worm import WormParams, riccati_threshold, s_gamma_reference, sgamma_points, worm_domain

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

def random_scalar_field(n, rng, terms=4, name="random"):
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

    return ScalarField(n, fn, name=name)


def random_metric(n, rng, eps=0.15):
    """Hermitian positive-definite metric field near a constant base."""
    base = np.eye(n) * (1.0 + rng.random(n))
    upper = {}
    for j in range(n):
        for k in range(j, n):
            upper[(j, k)] = (random_scalar_field(n, rng, terms=2),
                             random_scalar_field(n, rng, terms=2))

    def entry(j, k):
        swap = j > k
        a, b = upper[(min(j, k), max(j, k))]

        def fn(zs):
            pert = a.fn(zs) + 1j * b.fn(zs) if j != k else a.fn(zs)
            if swap:
                pert = pert.conj()
            return jets.Jet.constant(base[min(j, k), min(j, k)] if j == k else 0.0,
                                     2 * n, zs[0].order) + eps * pert

        return ScalarField(n, fn, name=f"g[{j}{k}]")

    return MetricField(n, [[entry(j, k) for k in range(n)] for j in range(n)], name="random")


def _random_point(n, rng, scale=0.4):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _random_vec(n, rng):
    return CTVector.holo(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _apply_vec(v, table):
    n = table.n
    return complex(v.h @ table.w1[:n] + v.a @ table.w1[n:])


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def jets_suite(count=200, seed=0, n=2):
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


def h3_identity_suite(count=200, seed=1, n=2, tol=1e-8):
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

        def h3(a, b, c):
            return h3_op(metric, z, f, a, b, c, frame=fr, table=table)

        def hess(a, b):
            return hess_op(metric, z, f, a, b, frame=fr, table=table)

        t_lz = torsion(metric, z, lvec, zvec, frame=fr)
        r1 = abs(h3(lvec, zvec, wbar) - h3(zvec, lvec, wbar) + hess(t_lz, wbar))
        rw = curvature(metric, z, wbar, zvec, lvec, frame=fr)
        r2 = abs(h3(wbar, zvec, lvec) - h3(zvec, wbar, lvec) + _apply_vec(rw, table))
        r3 = abs(h3(lvec, zvec, wbar) - h3(lvec, wbar, zvec))
        t_zl = torsion(metric, z, zvec, lvec, frame=fr)
        r4 = abs(h3(zvec, wbar, lvec) - h3(lvec, wbar, zvec) + hess(wbar, t_zl))
        xvec = 0.5 * (lvec + lvec.conj())
        rc = curvature(metric, z, zvec, wbar, lvec.conj(), frame=fr)
        cyc = abs(h3(zvec, wbar, xvec) - h3(xvec, zvec, wbar)
                  + 0.5 * (hess(wbar, t_zl) + _apply_vec(rc, table)
                           + hess(zvec, torsion(metric, z, wbar, lvec.conj(), frame=fr))))
        for key, val in zip(worst, (r1, r2, r3, r4, cyc)):
            worst[key] = _worst(worst[key], val)
    return [_rec("h3", f"identity_{k}", v, tol) for k, v in worst.items()]


def structural_suite(count=50, seed=2, n=2):
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

        tv = torsion(metric, z, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()), frame=fr)
        worst_t = _worst(worst_t, float(np.max(np.abs(tv.coeffs))))

        lhs = (hess_op(metric, z, f, zvec, wvec, frame=fr, table=table)
               - hess_op(metric, z, f, wvec, zvec, frame=fr, table=table))
        tzw = torsion(metric, z, zvec, wvec, frame=fr)
        worst_hsym = _worst(worst_hsym, abs(lhs + _apply_vec(tzw, table)))

        mixed = hess_op(metric, z, f, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()),
                        frame=fr, table=table)
        direct = complex(zvec.h @ table.mixed_hessian @ wvec.h.conj())
        worst_ch = _worst(worst_ch, abs(mixed - direct))

        worst_compat = _worst(worst_compat, metric_compat_residual(metric, z))

        hf = VectorField.from_holo([random_scalar_field(n, rng, terms=2) for _ in range(n)])
        sf = random_scalar_field(n, rng, terms=2)
        from .geometry import covariant_derivative

        direction = _random_vec(n, rng)
        scaled = VectorField(n, h_fields=[
            ScalarField(n, lambda zs, hfi=hfield, s=sf: s.fn(zs) * hfi.fn(zs))
            for hfield in hf.h_fields])
        lhsv = covariant_derivative(metric, z, direction, scaled, frame=fr)
        stab = wirtinger_table(sf.jet(z, 1), n)
        sval = stab.value
        xs = complex(direction.coeffs @ stab.w1)
        rhsv = sval * covariant_derivative(metric, z, direction, hf, frame=fr) + xs * hf.value(z)
        worst_leib = _worst(worst_leib, float(np.max(np.abs((lhsv - rhsv).coeffs))))

        xfield = VectorField.from_holo([random_scalar_field(n, rng, terms=2) for _ in range(n)])
        yfield = VectorField.from_holo([random_scalar_field(n, rng, terms=2) for _ in range(n)])
        tdef = torsion_from_fields(metric, z, xfield, yfield)
        tten = torsion(metric, z, xfield.value(z), yfield.value(z), frame=fr)
        worst_tdef = _worst(worst_tdef, float(np.max(np.abs((tdef - tten).coeffs))))

        curvature_contraction(metric, z, zvec, wvec, frame=fr)  # raises if not real
    out.append(_rec("structural", "torsion_mixed_type_vanishes", worst_t, 1e-10))
    out.append(_rec("structural", "hessian_antisymmetry_is_torsion", worst_hsym, 1e-9))
    out.append(_rec("structural", "complex_hessians_equal", worst_ch, 1e-10))
    out.append(_rec("structural", "metric_compatibility", worst_compat, 1e-9))
    out.append(_rec("structural", "covariant_derivative_leibniz", worst_leib, 1e-9))
    out.append(_rec("structural", "torsion_definition_vs_tensor", worst_tdef, 1e-9))
    out.append(_rec("structural", "curvature_contraction_real", worst_curv_im, 1e-9))
    return out


def boundary_suite(samples=20, seed=3, gamma=math.pi):
    out = []
    ball = ball_domain()
    worm_e = worm_domain(WormParams(gamma=gamma), metric="euclidean")
    rng = np.random.default_rng(seed)
    worst_frame, worst_null, worst_levi_neg = 0.0, 0.0, 0.0
    for domain in (ball, worm_e):
        pts = sample_boundary(domain, samples, seed)
        for p in pts:
            fr = normal_frame(domain, p)
            worst_frame = _worst(worst_frame,
                                 abs(fr.dr(fr.L) - 1.0),
                                 abs(math.sqrt(fr.norm2(fr.L)) - 1.0 / fr.dbar_norm))
            ld = levi_data(domain, fr)
            worst_levi_neg = _worst(worst_levi_neg, 0.0, -float(ld.eigenvalues[0]))
            for zv in ld.null_basis:
                for _ in range(20):
                    w = _random_vec(domain.n, rng)
                    resid = abs(fr.levi(zv.h, w.h)
                                - forms.alpha(domain, p, zv, frame=fr) * np.conj(fr.u @ w.h))
                    scale = math.sqrt(fr.norm2(zv)) * math.sqrt(fr.norm2(w))
                    worst_null = _worst(worst_null, resid / max(scale, 1e-12))
    out.append(_rec("boundary", "frame_identities", worst_frame, 1e-10))
    out.append(_rec("boundary", "null_space_identity", worst_null, 1e-6))
    out.append(_rec("boundary", "pseudoconvexity_monitor", worst_levi_neg, 1e-7))

    p = sample_boundary(ball, 1, seed)[0]
    ld = levi_data(ball, p)
    path = transport_along_normal(ball, p, ld.basis[0], 0.1, steps=16)
    out.append(_rec("boundary", "transport_r_residual", float(np.max(np.abs(path.r_residual))), 1e-8))
    out.append(_rec("boundary", "transport_tangency", float(np.max(path.tangency)), 1e-8))
    out.append(_rec("boundary", "transport_norm_preserved", float(np.max(path.norm_drift)), 1e-8))
    return out


def forms_suite(seed=4, gamma=math.pi, grid=(32, 32)):
    out = []
    params = WormParams(gamma=gamma)
    worm_e = worm_domain(WormParams(gamma=gamma), metric="euclidean")
    worm_k = worm_domain(WormParams(gamma=gamma), metric="worm_kahler")
    rng = np.random.default_rng(seed)

    worst_inv_a, worst_inv_b, worst_real, worst_cross_a = 0.0, 0.0, 0.0, 0.0
    worst_nullf, worst_unm, worst_geo = 0.0, 0.0, 0.0
    for p in sgamma_points(params, 12, spread=0.85):
        zv = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
        a_e = forms.alpha(worm_e, p, zv)
        a_k = forms.alpha(worm_k, p, zv)
        b_e = forms.beta_mixed(worm_e, p, zv, zv)
        b_k = forms.beta_mixed(worm_k, p, zv, zv)
        worst_inv_a = _worst(worst_inv_a, abs(a_e - a_k))
        worst_inv_b = _worst(worst_inv_b, abs((1j * b_e).real - (1j * b_k).real))
        worst_real = _worst(worst_real, abs((1j * b_e).imag),
                            abs(forms.alpha(worm_e, p, zv.conj()) - np.conj(a_e)))
        worst_cross_a = _worst(worst_cross_a, abs(a_e - forms.alpha_geometric(worm_e, p, zv)))
        worst_nullf = _worst(worst_nullf, abs(b_e - forms.beta_mixed_nullspace(worm_e, p, zv, zv)))
        wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        worst_unm = _worst(worst_unm, abs(forms.beta_unmixed(worm_e, p, zv, zv)))
        worst_geo = _worst(worst_geo, abs(forms.beta_geometric(worm_k, p, zv) - (-1j * b_k).real))
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
        ldb = levi_data(ball, p)
        zv = ldb.basis[0]
        wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        ru, rm = forms.beta_weak_residual(ball, p, zv, wv)
        worst_weak = _worst(worst_weak, ru, rm)
    for p in sgamma_points(params, 2, spread=0.5):
        zv = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
        ru, rm = forms.beta_weak_residual(worm_e, p, zv, zv)
        worst_weak = _worst(worst_weak, ru, rm)
    out.append(_rec("forms", "weak_identity_beta_vs_grid_dalpha", worst_weak, 1e-5))

    patch = forms.sgamma_patch_tangent(worm_e)
    resid = forms.pullback_alpha_dclosed(worm_e, patch, grid=grid)
    out.append(_rec("forms", "stokes_circulation_density", resid, 1e-6))
    period = forms.loop_alpha_integral(worm_e, patch, v_span=(0.0, 4.0 * math.pi))
    out.append(_rec("forms", "loop_period_vs_oracle", abs(period - (-4.0 * math.pi)), 1e-6,
                    detail=f"period={period:.9f}"))

    kd = _worst(*(kahler_defect(worm_k.metric, z) for z in _annulus_points(params, 100, seed)))
    out.append(_rec("forms", "kahler_d_omega_zero", kd, 1e-8))
    return out


def _annulus_points(params, count, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-params.x_max, params.x_max, count)
    a1 = rng.uniform(0, 2 * math.pi, count)
    a2 = rng.uniform(0, 2 * math.pi, count)
    r1 = 1.8 * np.sqrt(rng.random(count))
    return np.stack([r1 * np.exp(1j * a1), np.exp(xs / 2.0) * np.exp(1j * a2)], axis=1)


def worm_reference_suite(count=50, seed=5, gamma=math.pi, t=1.2, tol=1e-6):
    params = WormParams(gamma=gamma, t=t)
    domain = worm_domain(params, metric="worm_kahler")
    wp = domain.params["worm"]
    zvec = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
    worst = dict(alpha=0.0, curvature=0.0, sff_j=0.0, sff_zz=0.0, margin=0.0,
                 nabla=0.0, nabla_bar=0.0)
    eta = 0.4
    for p in sgamma_points(wp, count, spread=0.9):
        ref = s_gamma_reference(wp, p.z[1])
        fr = normal_frame(domain, p)
        rel = lambda a, b: abs(a - b) / (1.0 + abs(b))
        worst["alpha"] = _worst(worst["alpha"],
                                rel(forms.alpha(domain, p, zvec, frame=fr), ref.alpha))
        curv = curvature_contraction(domain.metric, fr.z, zvec, fr.nu_C, frame=fr.chern(2))
        worst["curvature"] = _worst(worst["curvature"], rel(curv, ref.curvature))
        sff_j = abs(fr.hess_r(zvec, fr.nu_R.J())) ** 2 * fr.norm2(fr.X)
        worst["sff_j"] = _worst(worst["sff_j"], rel(sff_j, ref.sff_JnuR_sq))
        worst["sff_zz"] = _worst(worst["sff_zz"], abs(fr.hess_r(zvec, zvec)) * fr.norm2(fr.X))
        worst["margin"] = _worst(worst["margin"], rel(geometric_margin(domain, p, zvec, eta, frame=fr),
                                                      ref.margin(eta)))
        nb = fr.nabla_L(CTVector.anti(np.array([0.0, 1.0], dtype=complex)))
        worst["nabla_bar"] = _worst(worst["nabla_bar"],
                                    rel(nb.h[0] / fr.L.h[0], ref.nabla_bar_factor))
        nl = fr.nabla_L(zvec)
        worst["nabla"] = _worst(worst["nabla"], rel(nl.h[0] / fr.L.h[0], ref.nabla_factor))
    return [_rec("worm_reference", k, v, tol) for k, v in worst.items()]


def margin_equivalence_suite(count=30, seed=6, gamma=math.pi, t=1.2):
    params = WormParams(gamma=gamma, t=t)
    domain = worm_domain(params, metric="worm_kahler")
    zvec = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
    worst = 0.0
    for p in sgamma_points(domain.params["worm"], count, spread=0.9):
        fr = normal_frame(domain, p)
        for eta in (0.0, 0.25, 0.4):
            gm = geometric_margin(domain, p, zvec, eta, frame=fr)
            vm = vectorfield_margin(domain, p, zvec, eta, frame=fr)
            worst = _worst(worst, abs(gm - vm))
    return [_rec("margins", "geometric_equals_vectorfield", worst, 1e-8)]


def riccati_suite(gammas=(0.6 * math.pi, math.pi, 1.5 * math.pi, 2 * math.pi), tol=1e-3):
    out = []
    for g in gammas:
        th = riccati_threshold(g)
        out.append(_rec("riccati", f"threshold_gamma_{g:.4f}", abs(th - math.pi / (2 * g)), tol,
                        detail=f"threshold={th:.6f}"))
    return out


def run_all(reduced=True, corrupt_metric=False):
    """Every invariant suite; ``reduced`` lowers sample counts for the CLI."""
    scale = 1 if reduced else 4
    records = []
    records += jets_suite(count=100 * scale)
    records += h3_identity_suite(count=50 * scale)
    records += structural_suite(count=15 * scale)
    records += boundary_suite(samples=8 * scale)
    records += forms_suite()
    records += worm_reference_suite(count=12 * scale)
    records += margin_equivalence_suite(count=8 * scale)
    records += riccati_suite()
    if corrupt_metric:
        records += _corrupted_metric_check()
    return records


def _corrupted_metric_check():
    """Inject a non-Hermitian metric; the Hermitian-metric invariant fails."""
    n = 2

    def entry(j, k):
        def fn(zs):
            base = 1.0 if j == k else 0.0
            skew = 0.05 if (j, k) == (0, 1) else 0.0
            return jets.Jet.constant(base + skew, 2 * n, zs[0].order)

        return ScalarField(n, fn, name=f"bad[{j}{k}]")

    bad = MetricField(n, [[entry(j, k) for k in range(n)] for j in range(n)], name="corrupted")
    try:
        bad.matrix(np.zeros(n, dtype=complex))
        detail = "validation failed to reject the non-Hermitian metric"
    except Exception as err:
        detail = f"rejected: {err}"
    return [CheckRecord(suite="injected", name="hermitian_metric_invariant",
                        passed=False, residual=0.05, tol=1e-12, detail=detail)]
