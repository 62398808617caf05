"""Invariant suites: randomized identity checks shared by tests and selftest.

Each suite returns a list of :class:`CheckRecord`; a record fails when its
residual exceeds the stated tolerance.  Sample counts are parameters, and
:func:`run_all` sets the small counts of the command-line selftest.  A suite
of random instances (fields, metrics, points and vectors) draws them all
first, in turn, and then evaluates them as one batch.
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
    _col,
    levi_data,
    normal_frame,
    sample_boundary,
    transport_along_normal,
)
from .domains import ball_domain
from .estimator import geometric_margin, vectorfield_margin
from .fields import ScalarField, complex_point, real_coords, wirtinger_table
from .geometry import (
    CTVector,
    _abs,
    _dot,
    _lead,
    _pair,
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
from .worm import (RICCATI_GAMMAS, WormParams, riccati_threshold, s_gamma_reference, sgamma_fiber,
                   sgamma_patch_tangent, sgamma_points, worm_domain)

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
#
# A random field or metric is one evaluator of its parameters.  They are
# one instance's, or the parameters of a batch of instances stacked with the
# instance axis first; the evaluator then runs on a batch of points, one
# instance per column, and each column does exactly its own instance's
# operations.

def _by_column(key, fn, x):
    """``fn(key, x)`` for one instance's integer ``key``.

    Over a batch ``key`` holds one per column, and the columns of each key
    run ``fn`` with it (through :func:`dfindex.jets.branch`).
    """
    if np.ndim(key):
        first = key == key[0]
        if not first.all():
            return jets.branch(first, lambda s: _by_column(key[first], fn, s),
                               lambda s: _by_column(key[~first], fn, s), x)
        key = key[0]
    return fn(int(key), x)


def _scaled(c, jet):
    """``float(c) * jet`` for one instance's coefficient; over a batch, each column times its own.

    Elementwise, as a jet times a number is: the product rule with a
    constant jet would turn a -0.0 into +0.0.
    """
    c = c if np.ndim(c) else float(c)
    return jets.Jet(jet.m, jet.order, c * jet.value,
                    *(None if a is None else c * a for a in (jet.grad, jet.hess, jet.third)))


def _term(kind, xy):
    xj, yk = xy
    if kind == 0:
        return xj * yk
    if kind == 1:
        return jets.sin(xj) * jets.cos(yk)
    if kind == 2:
        return xj * xj * yk
    return jets.exp(jets.sin(yk) * 0.5) * xj


def _field_params(n, rng, terms):
    """A random field's coefficients, coordinate picks (j, k) and term kinds."""
    return rng.standard_normal(terms), rng.integers(0, n, size=(terms, 2)), rng.integers(0, 4, size=terms)


def _field(n, params):
    """Sum of c * term(Re z_j, Im z_k) over the terms of ``params``: polynomial/trig mix."""
    coeffs, picks, kinds = params

    def fn(zs):
        out = jets.Jet.constant(0.0, 2 * n, zs[0].order)
        for t in range(coeffs.shape[-1]):
            xj = _by_column(picks[..., t, 0], lambda j, s: s[j], zs).real()
            yk = _by_column(picks[..., t, 1], lambda k, s: s[k], zs).imag()
            out = out + _scaled(coeffs[..., t], _by_column(kinds[..., t], _term, (xj, yk)))
        return out

    return ScalarField(n, fn, name="random")


def random_scalar_field(n, rng, terms=4):
    """Random bounded real-analytic field: polynomial/trig mix in Re, Im z."""
    return _field(n, _field_params(n, rng, terms))


def _metric_params(n, rng):
    """A random metric's base diagonal and the field parameters of each upper entry's Re and Im."""
    base = 1.0 + rng.random(n)
    return base, tuple((_field_params(n, rng, 2), _field_params(n, rng, 2))
                       for j in range(n) for k in range(j, n))


def _metric(n, params):
    """Hermitian metric near the constant ``base`` diagonal (perturbation size 0.15)."""
    eps = 0.15
    base, entries = params
    upper = [(j, k) for j in range(n) for k in range(j, n)]
    fields = [(_field(n, a), _field(n, b)) for a, b in entries]

    def fn(zs):
        g = [[None] * n for _ in range(n)]
        for (j, k), (a, b) in zip(upper, fields):
            if j == k:
                g[j][j] = jets.Jet.constant(base[..., j], 2 * n, zs[0].order) + eps * a.fn(zs)
            else:
                zero, pert = jets.Jet.constant(0.0, 2 * n, zs[0].order), a.fn(zs) + 1j * b.fn(zs)
                g[j][k], g[k][j] = zero + eps * pert, zero + eps * pert.conj()
        return g

    return MetricField(n, fn, name="random")


def random_metric(n, rng):
    """Hermitian positive-definite metric field near a constant base (perturbation size 0.15)."""
    return _metric(n, _metric_params(n, rng))


def _vector_params(n, rng):
    """A random (1,0) vector field's parameters: a two-term field's for each coefficient."""
    return tuple(_field_params(n, rng, 2) for _ in range(n))


def _vector_field(n, params):
    return VectorField.from_holo([_field(n, p) for p in params])


def _stack(instances):
    """The parameters of several instances, stacked leaf by leaf with the instance axis first."""
    if isinstance(instances[0], tuple):
        return tuple(_stack(parts) for parts in zip(*instances))
    return np.stack(instances)


def _draw(count, draw):
    """``count`` instances of ``draw()`` (a tuple), drawn in turn and stacked."""
    return _stack([draw() for _ in range(count)])


def _random_point(n, rng):
    return 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _random_coeffs(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _w1(table):
    """The first-order table of f with the batch axis first, C-contiguous (as each one-point table is)."""
    return np.ascontiguousarray(_lead(table.w1, 1))


def _apply_vec(v, table):
    """V f per point, from the first-order table of f."""
    n, w1 = table.n, _w1(table)
    return _dot(v.h, w1[..., :n]) + _dot(v.a, w1[..., n:])


def _worst_of(values):
    """The largest of a batch of residuals, or NaN if any is NaN."""
    return _worst(0.0, *values.tolist())


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def jets_suite(count=200, seed=0):
    n = 2
    rng = np.random.default_rng(seed)
    out = []
    params, z = _draw(count, lambda: (_field_params(n, rng, 4), _random_point(n, rng)))
    jet = _field(n, params).jet(z, 3)
    h_asym = float(np.max(np.abs(jet.hess - np.swapaxes(jet.hess, 0, 1))))
    t = jet.third
    t_asym = _worst(*(float(np.max(np.abs(t - np.transpose(t, p + (3,)))))
                      for p in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))))
    out.append(_rec("jets", "mixed_partial_symmetry_exact", _worst(0.0, h_asym, t_asym), 0.0))

    worst_g, worst_h = 0.0, 0.0
    draws = [(_field_params(n, rng, 4), _random_point(n, rng)) for _ in range(10)]
    params, z = _stack(draws)
    jet = _field(n, params).jet(z, 2)
    # each field at x0, then at x0 + e and x0 - e for each step e along a real axis: 9 points a field
    x0, h = real_coords(z), 1e-4
    e = (h * np.eye(2 * n))[:, None]
    shifted = np.concatenate([x0[None], x0 + e, x0 - e]).reshape(-1, 2 * n)
    nine = _field(n, _stack([p for p, _ in draws] * 9))
    f0, fps, fms = np.split(nine(complex_point(shifted)).reshape(9, len(draws)), [1, 1 + 2 * n])
    for i in range(2 * n):
        for b, (fp, fm, f_0) in enumerate(zip(fps[i].tolist(), fms[i].tolist(), f0[0].tolist())):
            fd = (fp - fm) / (2 * h)
            scale = 1.0 + abs(jet.grad[i, b])
            worst_g = _worst(worst_g, abs(fd - jet.grad[i, b]) / scale)
            fd2 = (fp - 2 * f_0 + fm) / h**2
            worst_h = _worst(worst_h, abs(fd2 - jet.hess[i, i, b]) / (1.0 + abs(jet.hess[i, i, b])))
    out.append(_rec("jets", "finite_difference_gradient", worst_g, 1e-8))
    out.append(_rec("jets", "finite_difference_hessian", worst_h, 1e-5))

    fparams, gparams, z = _draw(20, lambda: (_field_params(n, rng, 4), _field_params(n, rng, 4),
                                             _random_point(n, rng)))
    f, g = _field(n, fparams), _field(n, gparams)
    field = ScalarField(n, lambda zs: f.fn(zs) + 1j * g.fn(zs))
    jet = field.jet(z, 3)
    ta, tb = wirtinger_table(jet, n), wirtinger_table(jet.conj(), n)
    worst = _worst(0.0, float(np.max(np.abs(tb.w2 - np.roll(ta.w2.conj(), n, axis=(0, 1))))))
    out.append(_rec("jets", "conjugation_swaps_wirtinger_indices", worst, 1e-13))
    return out


def h3_identity_suite(count=200, seed=1):
    n = 2
    rng = np.random.default_rng(seed)
    mparams, fparams, z, lh, zh, wh = _draw(count, lambda: (
        _metric_params(n, rng), _field_params(n, rng, 4), _random_point(n, rng),
        *(_random_coeffs(n, rng) for _ in range(3))))
    lvec, zvec, wvec = CTVector.holo(lh), CTVector.holo(zh), CTVector.holo(wh)
    wbar = wvec.conj()
    fr = chern_frame(_metric(n, mparams), z, order=2)
    table = wirtinger_table(_field(n, fparams).jet(z, 3), n)
    hc = hess_tensor(table, fr)
    h3, hess = partial(h3_op, h3_tensor(table, fr, hc)), partial(hess_op, hc)
    t_lz = torsion(fr, lvec, zvec)
    r1 = _abs(h3(lvec, zvec, wbar) - h3(zvec, lvec, wbar) + hess(t_lz, wbar))
    rw = curvature(fr, wbar, zvec, lvec)
    r2 = _abs(h3(wbar, zvec, lvec) - h3(zvec, wbar, lvec) + _apply_vec(rw, table))
    r3 = _abs(h3(lvec, zvec, wbar) - h3(lvec, wbar, zvec))
    t_zl = torsion(fr, zvec, lvec)
    r4 = _abs(h3(zvec, wbar, lvec) - h3(lvec, wbar, zvec) + hess(wbar, t_zl))
    xvec = 0.5 * (lvec + lvec.conj())
    rc = curvature(fr, zvec, wbar, lvec.conj())
    cyc = _abs(h3(zvec, wbar, xvec) - h3(xvec, zvec, wbar)
               + 0.5 * (hess(wbar, t_zl) + _apply_vec(rc, table)
                        + hess(zvec, torsion(fr, wbar, lvec.conj()))))
    names = ("first_unmixed", "first_mixed", "second_mixed", "third_unmixed", "cycle")
    return [_rec("h3", f"identity_{k}", _worst_of(v), 1e-8) for k, v in zip(names, (r1, r2, r3, r4, cyc))]


def structural_suite(count=50, seed=2):
    n = 2
    rng = np.random.default_rng(seed)
    mparams, fparams, z, zh, wh, hparams, sparams, dh, xparams, yparams = _draw(count, lambda: (
        _metric_params(n, rng), _field_params(n, rng, 4), _random_point(n, rng),
        _random_coeffs(n, rng), _random_coeffs(n, rng), _vector_params(n, rng), _field_params(n, rng, 2),
        _random_coeffs(n, rng), _vector_params(n, rng), _vector_params(n, rng)))
    metric = _metric(n, mparams)
    fr = chern_frame(metric, z, order=2)
    table = wirtinger_table(_field(n, fparams).jet(z, 3), n)
    zvec, wvec = CTVector.holo(zh), CTVector.holo(wh)
    out = []

    tv = torsion(fr, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()))
    worst_t = _worst(0.0, float(np.max(np.abs(tv.coeffs))))

    hc = hess_tensor(table, fr)
    lhs = hess_op(hc, zvec, wvec) - hess_op(hc, wvec, zvec)
    tzw = torsion(fr, zvec, wvec)
    worst_hsym = _worst_of(_abs(lhs + _apply_vec(tzw, table)))

    mixed = hess_op(hc, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()))
    direct = _pair(zvec.h, np.ascontiguousarray(_lead(table.mixed_hessian, 2)), wvec.h.conj())
    worst_ch = _worst_of(_abs(mixed - direct))

    worst_compat = _worst_of(metric_compat_residual(metric, z))

    hf = _vector_field(n, hparams)
    sf = _field(n, sparams)
    direction = CTVector.holo(dh)
    scaled = VectorField(n, h_fields=[
        ScalarField(n, lambda zs, hfi=hfield: sf.fn(zs) * hfi.fn(zs)) for hfield in hf.h_fields])
    lhsv = covariant_derivative(fr, direction, scaled)
    stab = wirtinger_table(sf.jet(z, 1), n)
    xs = _dot(direction.coeffs, _w1(stab))
    rhsv = covariant_derivative(fr, direction, hf) * _col(stab.value) + hf.value(z) * _col(xs)
    worst_leib = _worst(0.0, float(np.max(np.abs((lhsv - rhsv).coeffs))))

    xfield, yfield = _vector_field(n, xparams), _vector_field(n, yparams)
    tdef = torsion_from_fields(fr, xfield, yfield)
    tten = torsion(fr, xfield.value(z), yfield.value(z))
    worst_tdef = _worst(0.0, float(np.max(np.abs((tdef - tten).coeffs))))

    # <R(Z, Zbar)W, W> is real by Hermitian symmetry
    val = inner(fr.g, curvature(fr, zvec, CTVector.anti(zvec.h.conj()), wvec), wvec)
    worst_curv_im = _worst_of(np.abs(val.imag) / (1.0 + np.abs(val.real)))
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
    for domain, special in ((ball, []), (worm_e, sgamma_points(worm_e.params["worm"], samples, 0.97))):
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
            w = CTVector.holo(np.array([_random_coeffs(domain.n, rng) for _ in rows]))
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
    zf = sgamma_fiber(len(points))
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
    resid = forms.pullback_alpha_dclosed(patch)
    out.append(_rec("forms", "stokes_circulation_density", resid, 1e-6))
    period = forms.loop_alpha_integral(patch)
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
    return wp, points, normal_frame(domain, points), sgamma_fiber(len(points))


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


def riccati_suite():
    out = []
    for g in RICCATI_GAMMAS:
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
