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
from .estimator import HBasis, _weight, geometric_margin, make_site, vectorfield_margin
from .fields import ScalarField, complex_point, real_coords, wirtinger_table
from .geometry import (
    CTVector,
    _abs,
    _abs_sq,
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
from .worm import (RICCATI_GAMMAS, WormParams, sgamma_comparison, sgamma_fiber, sgamma_patch_tangent,
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
    "tan_profile_basis",
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
    """The largest of a batch of residuals (of any shape), 0 for none, or NaN if any is NaN."""
    return float(np.max(values, initial=0.0))


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def jets_suite(count=200, seed=0):
    n = 2
    rng = np.random.default_rng(seed)
    out = []
    params, z = _draw(count, lambda: (_field_params(n, rng, 4), _random_point(n, rng)))
    jet = _field(n, params).jet(z, 3)
    t = jet.third
    asym = [jet.hess - np.swapaxes(jet.hess, 0, 1),
            *(t - np.transpose(t, p + (3,)) for p in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)))]
    out.append(_rec("jets", "mixed_partial_symmetry_exact", _worst_of([_worst_of(np.abs(a)) for a in asym]),
                    0.0))

    draws = [(_field_params(n, rng, 4), _random_point(n, rng)) for _ in range(10)]
    params, z = _stack(draws)
    jet = _field(n, params).jet(z, 2)
    # each field at x0, then at x0 + e and x0 - e for each step e along a real axis: 9 points a field
    x0, h = real_coords(z), 1e-4
    e = (h * np.eye(2 * n))[:, None]
    shifted = np.concatenate([x0[None], x0 + e, x0 - e]).reshape(-1, 2 * n)
    nine = _field(n, _stack([p for p, _ in draws] * 9))
    # the fields are real: real quotients round as one-point ones (NumPy's complex quotient may not)
    f0, fp, fm = np.split(np.real(nine(complex_point(shifted))).reshape(9, len(draws)), [1, 1 + 2 * n])
    grad, hess = np.real(jet.grad), np.real(jet.hess[np.arange(2 * n), np.arange(2 * n)])
    worst_g = _worst_of(np.abs((fp - fm) / (2 * h) - grad) / (1.0 + np.abs(grad)))
    worst_h = _worst_of(np.abs((fp - 2 * f0 + fm) / h**2 - hess) / (1.0 + np.abs(hess)))
    out.append(_rec("jets", "finite_difference_gradient", worst_g, 1e-8))
    out.append(_rec("jets", "finite_difference_hessian", worst_h, 1e-5))

    fparams, gparams, z = _draw(20, lambda: (_field_params(n, rng, 4), _field_params(n, rng, 4),
                                             _random_point(n, rng)))
    f, g = _field(n, fparams), _field(n, gparams)
    field = ScalarField(n, lambda zs: f.fn(zs) + 1j * g.fn(zs))
    jet = field.jet(z, 3)
    ta, tb = wirtinger_table(jet, n), wirtinger_table(jet.conj(), n)
    worst = _worst_of(np.abs(tb.w2 - np.roll(ta.w2.conj(), n, axis=(0, 1))))
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

    tv = torsion(fr, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()))

    hc = hess_tensor(table, fr)
    lhs = hess_op(hc, zvec, wvec) - hess_op(hc, wvec, zvec)
    tzw = torsion(fr, zvec, wvec)

    mixed = hess_op(hc, CTVector.holo(zvec.h), CTVector.anti(wvec.h.conj()))
    direct = _pair(zvec.h, np.ascontiguousarray(_lead(table.mixed_hessian, 2)), wvec.h.conj())

    hf = _vector_field(n, hparams)
    sf = _field(n, sparams)
    direction = CTVector.holo(dh)
    scaled = VectorField(n, h_fields=[
        ScalarField(n, lambda zs, hfi=hfield: sf.fn(zs) * hfi.fn(zs)) for hfield in hf.h_fields])
    lhsv = covariant_derivative(fr, direction, scaled)
    stab = wirtinger_table(sf.jet(z, 1), n)
    xs = _dot(direction.coeffs, _w1(stab))
    rhsv = covariant_derivative(fr, direction, hf) * _col(stab.value) + hf.value(z) * _col(xs)

    xfield, yfield = _vector_field(n, xparams), _vector_field(n, yparams)
    tdef = torsion_from_fields(fr, xfield, yfield)
    tten = torsion(fr, xfield.value(z), yfield.value(z))

    # <R(Z, Zbar)W, W> is real by Hermitian symmetry
    val = inner(fr.g, curvature(fr, zvec, CTVector.anti(zvec.h.conj()), wvec), wvec)
    checks = (
        ("torsion_mixed_type_vanishes", np.abs(tv.coeffs), 1e-10),
        ("hessian_antisymmetry_is_torsion", _abs(lhs + _apply_vec(tzw, table)), 1e-9),
        ("complex_hessians_equal", _abs(mixed - direct), 1e-10),
        ("metric_compatibility", metric_compat_residual(metric, z), 1e-9),
        ("covariant_derivative_leibniz", np.abs((lhsv - rhsv).coeffs), 1e-9),
        ("torsion_definition_vs_tensor", np.abs((tdef - tten).coeffs), 1e-9),
        ("curvature_contraction_real", np.abs(val.imag) / (1.0 + np.abs(val.real)), 1e-9),
    )
    return [_rec("structural", name, _worst_of(v), tol) for name, v, tol in checks]


def boundary_suite(samples=20):
    out = []
    seed = 3
    ball = ball_domain()
    worm_e = worm_domain(WormParams(gamma=math.pi), metric="euclidean")
    rng = np.random.default_rng(seed)
    frame, levi_neg, null, null_pairs = [], [], [], 0
    for domain, special in ((ball, []), (worm_e, sgamma_points(worm_e.params["worm"], samples, 0.97))):
        # the random sample has no null direction, so the null-space identity also runs
        # at the worm's S_gamma points; the frame and pseudoconvexity checks keep the sample
        fr = normal_frame(domain, sample_boundary(domain, samples, seed) + special)
        frame += [_abs(fr.dr(fr.L)[:samples] - 1.0),
                  np.abs(np.sqrt(fr.norm2(fr.L)[:samples]) - 1.0 / fr.dbar_norm[:samples])]
        ld = levi_data(fr)
        levi_neg.append(-ld.eigenvalues[:samples, 0])
        at, zvec = ld.pairs(ld.null)
        if len(at):
            # each null (point, direction) pair against 20 random W, all on one frame
            rows = np.repeat(np.arange(len(at)), 20)
            w = CTVector.holo(np.array([_random_coeffs(domain.n, rng) for _ in rows]))
            zv = CTVector.holo(zvec.h[rows])
            pf = NormalFrame(domain, fr.z[at[rows]], r_order=2)
            resid = _abs(pf.levi(zv.h, w.h) - _vmul(forms.alpha(pf, zv), np.conj(_dot(pf.u, w.h))))
            scale = np.sqrt(pf.norm2(zv)) * np.sqrt(pf.norm2(w))
            null.append(resid / np.maximum(scale, 1e-12))
            null_pairs += len(at)
    out.append(_rec("boundary", "frame_identities", _worst_of(frame), 1e-10))
    out.append(_rec("boundary", "null_space_identity", _worst_of(np.concatenate(null)), 1e-6,
                    detail=f"null pairs checked: {null_pairs}"))
    out.append(_rec("boundary", "pseudoconvexity_monitor", _worst_of(levi_neg), 1e-7))

    base = normal_frame(ball, sample_boundary(ball, 1, seed)[0])
    path = transport_along_normal(base, levi_data(base).basis[0], 0.1, steps=16)
    out.append(_rec("boundary", "transport_r_residual", float(np.max(np.abs(path.r_residual))), 1e-8))
    out.append(_rec("boundary", "transport_tangency", float(np.max(path.tangency)), 1e-8))
    out.append(_rec("boundary", "transport_norm_preserved", float(np.max(path.norm_drift)), 1e-8))
    return out


def forms_suite():
    seed = 4
    params = WormParams(gamma=math.pi)
    worm_e = worm_domain(params, metric="euclidean")
    worm_k = worm_domain(params, metric="worm_kahler")
    rng = np.random.default_rng(seed)

    points = sgamma_points(params, 12, spread=0.85)
    fe, fk = normal_frame(worm_e, points), normal_frame(worm_k, points)
    zf = sgamma_fiber(len(points))
    a_e, a_k = forms.alpha(fe, zf), forms.alpha(fk, zf)
    b_e, b_k = forms.beta_mixed(fe, zf, zf), forms.beta_mixed(fk, zf, zf)
    checks = (
        ("alpha_metric_invariance", _abs(a_e - a_k), 1e-6),
        ("beta_metric_invariance", np.abs((1j * b_e).real - (1j * b_k).real), 1e-6),
        ("reality", [np.abs((1j * b_e).imag), _abs(forms.alpha(fe, zf.conj()) - np.conj(a_e))], 1e-10),
        ("alpha_vs_alpha_geometric", _abs(a_e - forms.alpha_geometric(fe, zf)), 1e-8),
        ("beta_mixed_vs_nullspace_formula", _abs(b_e - forms.beta_mixed_nullspace(fe, zf, zf)), 1e-8),
        ("beta_unmixed_null_pairs", _abs(forms.beta_unmixed(fe, zf, zf)), 1e-8),
        ("beta_geometric_vs_mixed", np.abs(forms.beta_geometric(fk, zf) - (-1j * b_k).real), 1e-7),
    )
    out = [_rec("forms", name, _worst_of(v), tol) for name, v, tol in checks]
    rng.standard_normal((len(points), 4))  # unused draws that fix the random stream of the checks below

    ball = ball_domain()
    weak = []
    for p in sample_boundary(ball, 3, seed):
        fb = normal_frame(ball, p)
        wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        weak.append(forms.beta_weak_residual(fb, levi_data(fb).basis[0], wv))
    zv = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
    weak += [forms.beta_weak_residual(normal_frame(worm_e, p), zv, zv)
             for p in sgamma_points(params, 2, spread=0.5)]
    out.append(_rec("forms", "weak_identity_beta_vs_grid_dalpha", _worst_of(weak), 1e-5))

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


# the worm on whose annulus the worm and margin suites compare, with its Kaehler metric
_KAHLER_WORM = WormParams(gamma=math.pi, t=1.2)


def worm_reference_suite(count=50):
    fr, zvec, refs = sgamma_comparison(worm_domain(_KAHLER_WORM, metric="worm_kahler"), count)
    eta = 0.4
    ref = {name: np.array([getattr(r, name) for r in refs])
           for name in ("alpha", "curvature", "sff_JnuR_sq", "nabla_factor", "nabla_bar_factor")}
    x2 = fr.norm2(fr.X)

    def rel(a, b):
        return _abs(a - b) / (1.0 + _abs(b))

    checks = dict(
        alpha=rel(forms.alpha(fr, zvec), ref["alpha"]),
        curvature=rel(curvature_contraction(fr.chern, zvec, fr.nu_C), ref["curvature"]),
        sff_j=rel(_abs_sq(fr.hess_r(zvec, fr.nu_R.J())) * x2, ref["sff_JnuR_sq"]),
        sff_zz=_abs(fr.hess_r(zvec, zvec)) * x2,
        margin=rel(geometric_margin(fr, zvec, eta), np.array([r.margin(eta) for r in refs])),
        nabla=rel(fr.nabla_L(zvec).h[:, 0] / fr.L.h[:, 0], ref["nabla_factor"]),
        nabla_bar=rel(fr.nabla_L(CTVector.anti(zvec.h)).h[:, 0] / fr.L.h[:, 0], ref["nabla_bar_factor"]),
    )
    return [_rec("worm_reference", k, _worst_of(v), 1e-6) for k, v in checks.items()]


def margin_equivalence_suite(count=30):
    fr, zvec, _ = sgamma_comparison(worm_domain(_KAHLER_WORM, metric="worm_kahler"), count)
    diffs = [geometric_margin(fr, zvec, eta) - vectorfield_margin(fr, zvec, eta) for eta in (0.0, 0.25, 0.4)]
    return [_rec("margins", "geometric_equals_vectorfield", _worst_of(np.abs(diffs)), 1e-8)]


def tan_profile_basis(*ks):
    """The extremal Riccati profiles h = -log cos(k x)/k in x = log|z_2|^2, one field per k."""
    rows = lambda zs: [(-1.0 / k) * jets.log(jets.cos(jets.log(jets.abs2(zs[1])) * k)) for k in ks]
    return HBasis(n=2, m=len(ks), name="tan-profile", rows=rows)


def riccati_suite():
    """The engine's margin of the extremal Riccati profile vanishes along the fiber, for k just below k*.

    The points lie at |x| <= 0.9 a(0.6 pi), where lambda vanishes for every
    reference winding, so each worm(gamma) has the same r jets and one frame.
    """
    wp, count = WormParams(gamma=min(RICCATI_GAMMAS)), 6
    fr = normal_frame(worm_domain(wp), sgamma_points(wp, count, spread=0.9))
    etas = [(1.0 - 1e-3) * math.pi / (2.0 * g) for g in RICCATI_GAMMAS]
    sites = make_site(fr, sgamma_fiber(count), tan_profile_basis(*map(_weight, etas)))
    out = []
    for g, eta, c in zip(RICCATI_GAMMAS, etas, np.eye(len(etas))):
        resid = np.abs(sites.margins(c, eta)) / (1.0 + np.abs(sites.B))
        out.append(_rec("riccati", f"extremal_profile_gamma_{g:.4f}", _worst_of(resid), 1e-8,
                        detail=f"eta={eta:.6f}"))
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
