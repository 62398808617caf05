"""The worm-domain family: defining function, Kaehler metric, closed forms.

The family is the executable ground truth for the whole engine: every frame,
curvature, and margin quantity has a closed form on the Levi-degenerate
annulus ``S = {z_1 = 0, |log|z_2|^2| < gamma - pi/2}``, and the 1-D Riccati
reduction of the boundary inequality reproduces the known index pi/(2 gamma).
A worm's domain spec carries its S-sampler and its h-basis in x = log|z_2|^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import jets
from .boundary import BoundaryPoint, DomainSpec, normal_frame
from .estimator import HBasis, _weight
from .fields import ChartDomainError, ScalarField, seed_coordinate_jets
from .forms import SubmanifoldPatch
from .geometry import CTVector, MetricField, resolve_metric

__all__ = [
    "WormParams",
    "worm_domain",
    "worm_metric",
    "worm_reduction_basis",
    "SGammaReference",
    "s_gamma_reference",
    "sgamma_points",
    "sgamma_fiber",
    "sgamma_comparison",
    "sgamma_patch_tangent",
    "RiccatiResult",
    "riccati_feasibility",
    "riccati_threshold",
    "RICCATI_GAMMAS",
]

_POSITIVITY_FLOOR = 1e-3    # smallest sampled eigenvalue a worm Kaehler metric must reach
_SAMPLE_SEED, _SAMPLE_COUNT = 1234, 300   # the sample of that positivity check
_DOUBLINGS = 30             # doublings of s tried before a t is refused
RICCATI_GAMMAS = (0.6 * math.pi, math.pi, 1.5 * math.pi, 2 * math.pi)   # the reference windings


@dataclass
class WormParams:
    """Parameters of the worm family.

    ``gamma`` sets the winding length (> pi/2).  ``t`` controls the metric
    profile f(x) = cos(x/t)^(2t) and must exceed 2*gamma/pi - 1; pairing the
    metric with an exponent eta additionally needs t < 1/eta - 1.  ``s``
    scales the fiber direction of the metric (when left unset, the first of
    1, 2, 4, ... whose sampled metric is positive definite; see
    :func:`worm_metric`).  ``lam`` is the convex smoothing (c, p) in
    lambda(x) = c * max(0, x^2 - a^2)^p with a = gamma - pi/2.
    """

    gamma: float
    t: float | None = None
    s: float | None = None
    lam_c: float = 20.0
    lam_p: int = 3
    a: float = dc_field(init=False)
    x_cut: float = dc_field(init=False)

    def __post_init__(self):
        if self.gamma <= math.pi / 2:
            raise ValueError(f"gamma must exceed pi/2, got {self.gamma}")
        t_min = 2.0 * self.gamma / math.pi - 1.0
        if self.t is None:
            self.t = t_min + 0.2
        if self.t <= t_min:
            raise ValueError(f"t must exceed 2*gamma/pi - 1 = {t_min}, got {self.t}")
        if self.lam_p < 3:
            raise ValueError("lambda exponent p must be >= 3")
        if self.lam_c <= 0:
            raise ValueError("lambda scale c must be positive")
        self.a = self.gamma - math.pi / 2
        # switch f to the positive extension halfway between the needed
        # interval and the cosine zero at t*pi/2
        self.x_cut = 0.5 * (self.a + self.t * math.pi / 2)

    @property
    def x_max(self):
        """Largest |log|z_2|^2| on the closed domain (where lambda reaches 1)."""
        return math.sqrt(self.a**2 + self.lam_c ** (-1.0 / self.lam_p))

    def extension_coeffs(self):
        """Value/slope/curvature-matched log-quadratic extension of f at the cut."""
        xc, t = self.x_cut, self.t
        c = math.cos(xc / t)
        tn = math.tan(xc / t)
        f0 = c ** (2 * t)
        f1 = -2.0 * f0 * tn
        f2 = f0 * (4.0 * tn**2 - (2.0 / t) * (1.0 + tn**2))
        b = f1 / f0
        return f0, b, 0.5 * (f2 / f0 - b**2)


def _lambda_jet(x, params):
    u = x * x - params.a**2
    return jets.branch(np.real(u.value) <= 0.0,
                       lambda u: jets.Jet.constant(0.0, u.m, u.order),
                       lambda u: params.lam_c * u**params.lam_p, u)


def _f_jets(x, params):
    """Jets of f, f', f'' at a real jet x; branchwise analytic."""
    t = params.t

    def cosine(x):
        c = jets.cos(x * (1.0 / t))
        f = jets.power(c, 2.0 * t)
        tn = jets.sin(x * (1.0 / t)) / c
        f1 = -2.0 * f * tn
        f2 = f * (4.0 * tn * tn - (2.0 / t) * (1.0 + tn * tn))
        return f, f1, f2

    def extension(sgn):
        def ext(x):
            f0, b, cq = params.extension_coeffs()
            u = x * sgn - params.x_cut
            slope = b + (2.0 * cq) * u
            e = f0 * jets.exp(u * b + u * u * cq)
            return e, sgn * slope * e, (slope * slope + 2.0 * cq) * e

        return ext

    def outside(x):
        return jets.branch(np.real(x.value) > 0, extension(1.0), extension(-1.0), x)

    return jets.branch(abs(np.real(x.value)) <= params.x_cut, cosine, outside, x)


def _log_abs2(z2):
    return jets.log(jets.abs2(z2))


def _chebyshev_jets(u, degree):
    """T_0(u) .. T_degree(u) of a jet by the three-term recurrence."""
    out = [jets.Jet.constant(1.0, u.m, u.order), u]
    for _ in range(2, degree + 1):
        out.append(2.0 * (u * out[-1]) - out[-2])
    return out[: degree + 1]


_CLAMP_WIDTH = 0.005   # how far past |u| = 1 the soft clamp saturates


def _soft_clamp(u):
    """Identity on |u| <= 1, saturating smoothly to +-(1 + _CLAMP_WIDTH) outside.

    Twice continuously differentiable at the junction; keeps Chebyshev
    basis fields bounded on the whole chart so a certified h stays tame far
    from the constraint sites.
    """
    def saturate(sgn):
        return lambda x: sgn * (1.0 + _CLAMP_WIDTH * jets.tanh((x * sgn - 1.0) * (1.0 / _CLAMP_WIDTH)))

    return jets.branch(np.abs(np.real(u.value)) <= 1.0, lambda x: x,
                       lambda x: jets.branch(np.real(x.value) > 0, saturate(1.0), saturate(-1.0), x),
                       u)


def worm_reduction_basis(gamma, degree, spread):
    """Polynomials and one harmonic of the worm reduction coordinate x = log|z_2|^2.

    The polynomial part is expressed in Chebyshev polynomials T_0 .. T_degree
    of u = x / x_scale, with x_scale = ``spread * (gamma - pi/2)`` the
    sampled range of x: the span equals plain monomials of the same degree,
    but smooth candidates have O(1) coefficients, which keeps the
    feasibility program well conditioned; cos x and sin x are appended.
    Outside |u| <= 1 the polynomial argument saturates smoothly
    (:func:`_soft_clamp`), so the fields and their derivatives stay bounded
    on the whole chart.
    """
    x_scale = spread * (gamma - math.pi / 2)
    inv = 1.0 / x_scale

    def rows(zs):
        x = _log_abs2(zs[1])
        return _chebyshev_jets(_soft_clamp(x * inv), degree) + [jets.cos(x), jets.sin(x)]

    return HBasis(n=2, m=degree + 3, rows=rows,
                  name=f"log|z2|^2(deg={degree},harmonics=1,scale={x_scale:g})")


def worm_domain(params, metric="euclidean"):
    """Worm domain as a DomainSpec; ``metric`` is a spec of :func:`~dfindex.geometry.resolve_metric`.

    The worm's own metric name is "worm_kahler" (:func:`worm_metric`).
    The domain works on its own copy of ``params``, its ``params["worm"]``:
    the fiber scale s that :func:`worm_metric` picks lands there, never in
    the caller's parameters.  ``special_sampler(count, seed, spread)`` and
    ``h_basis(degree, spread)`` both reach |x| <= spread * a on the annulus
    S_gamma; the CLI passes its ``basis_spread`` to both.
    """
    params = replace(params)
    r2_hi = 1.05 * math.exp(params.x_max / 2.0)
    r2_lo = 0.95 * math.exp(-params.x_max / 2.0)

    def guard(z):
        if np.any(np.abs(z[..., 1]) < r2_lo):
            raise ChartDomainError(f"worm chart excludes |z_2| < {r2_lo:.3g} (removed fiber z_2 = 0)")

    def r_fn(zs):
        z1, z2 = zs
        x = _log_abs2(z2)
        w = z1 + jets.exp(1j * x)
        return jets.abs2(w) - 1.0 + _lambda_jet(x, params)

    r_field = ScalarField(2, r_fn, name=f"r_worm(gamma={params.gamma:g})", guard=guard)
    box = np.array(
        [[-2.3, 2.3], [-r2_hi, r2_hi], [-2.3, 2.3], [-r2_hi, r2_hi]], dtype=float
    )
    if r2_lo <= 0.0:
        raise ValueError("chart box touches the removed fiber z_2 = 0")

    metric_field = resolve_metric(metric, 2, "worm", {"worm_kahler": lambda: worm_metric(params)})
    label = metric if isinstance(metric, str) else metric_field.name
    return DomainSpec(
        name=f"worm(gamma={params.gamma:g}, metric={label})",
        n=2,
        r=r_field,
        metric=metric_field,
        box=box,
        interior_point=np.array([-0.5, 1.0], dtype=complex),
        min_abs_coord={1: r2_lo},
        # deterministic clustered nodes serve every seed identically
        special_sampler=lambda count, seed, spread=0.99: sgamma_points(params, count, spread),
        h_basis=functools.partial(worm_reduction_basis, params.gamma),
        params={"gamma": params.gamma, "worm": params},
    )


def worm_metric(params):
    """Kaehler metric of the worm family with entries per the expanded form.

    g_11 = f(x), g_21 = (z1/z2) f'(x), g_12 = conj, and
    g_22 = |z1|^2/|z2|^2 f''(x) + s/|z2|^2 with x = log|z_2|^2.  Its smallest
    eigenvalue at a point reaches ``_POSITIVITY_FLOOR`` exactly when f > floor
    and s >= floor |z2|^2 + |z1|^2 (f'^2/(f - floor) - f''), and s must meet
    this over a sample of a neighborhood of the closed domain.  When ``s`` is
    unset it is the first of 1, 2, 4, ... that does; an explicit too-small
    ``s`` raises with the first of 2 max(s, 1), 4 max(s, 1), ... that does.
    A ``t`` at which none does raises with the smallest t on the grid k/20
    above it at which one does.
    """
    sample = _positivity_sample(params)
    s = _fiber_scale(params, 1.0 if params.s is None else params.s, sample)
    if s is None:
        k0 = math.floor(20 * params.t)
        hint = f"no t = k/20 up to {(k0 + 400) / 20:g} passes either"
        for k in range(k0 + 1, k0 + 401):
            s_ok = _fiber_scale(replace(params, t=k / 20), 1.0, sample)
            if s_ok is not None:
                hint = (f"raise t (domain_params.t) to {k / 20:g}, the smallest t = k/20 above it "
                        f"that passes (s = {s_ok:g})")
                break
        raise ValueError(f"no positive-definite s found by doubling at t = {params.t:g}; {hint}")
    if params.s is None:
        params.s = s
    elif s != params.s:     # the explicit s itself fails
        g = MetricField(2, _entries(params, params.s)).matrix(sample)
        raise ValueError(f"s = {params.s} leaves the worm metric indefinite (min eigenvalue "
                         f"{np.min(np.linalg.eigvalsh(g)[:, 0]):.3e}); minimal passing s found by doubling: {s}")
    return MetricField(2, _entries(params, s), name=f"omega_worm(s={s:g})")


def _positivity_sample(params):
    """Points of a neighborhood of the closed domain: |z1| <= 2.05, and log|z2|^2 within the
    reach of lambda < 1 plus padding."""
    rng = np.random.default_rng(_SAMPLE_SEED)
    xs = rng.uniform(-params.x_max - 0.05, params.x_max + 0.05, size=_SAMPLE_COUNT)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(_SAMPLE_COUNT, 2))
    radii = 2.05 * np.sqrt(rng.random(_SAMPLE_COUNT))
    return np.stack([radii * np.exp(1j * angles[:, 0]),
                     np.exp(xs / 2.0) * np.exp(1j * angles[:, 1])], axis=1)


def _fiber_scale(params, s, sample):
    """The first of ``s``, 2 max(s, 1), 4 max(s, 1), ... up to ``_DOUBLINGS`` doublings that meets
    :func:`worm_metric`'s condition at ``params.t`` over ``sample``; None if none does (or on a NaN)."""
    z2 = seed_coordinate_jets(sample, 0)[1]
    f, f1, f2 = (np.real(j.value) for j in _f_jets(_log_abs2(z2), params))
    if not np.min(f) > _POSITIVITY_FLOOR:     # g_11 = f bounds the smallest eigenvalue
        return None
    bound = np.max(_POSITIVITY_FLOOR * np.abs(sample[:, 1]) ** 2
                   + np.abs(sample[:, 0]) ** 2 * (f1 * f1 / (f - _POSITIVITY_FLOOR) - f2))
    for _ in range(_DOUBLINGS + 1):
        if s >= bound:
            return s
        s = 2.0 * max(s, 1.0)
    return None


def _entries(params, s):
    """The entry evaluator of :func:`worm_metric` at fiber scale ``s``."""
    def fn(zs):
        z1, z2 = zs
        f, f1, f2 = _f_jets(_log_abs2(z2), params)
        inv = jets.abs2(z2).reciprocal()
        return [[f, (z1.conj() / z2.conj()) * f1],
                [(z1 / z2) * f1, jets.abs2(z1) * inv * f2 + s * inv]]

    return fn


# ----------------------------------------------------------------------
# closed forms on the degenerate annulus
# ----------------------------------------------------------------------

@dataclass
class SGammaReference:
    """Closed-form values at (0, z2) for the tangent vector Z = d/dz_2."""

    z2: complex
    x: float
    t: float
    alpha: complex
    nabla_bar_factor: complex      # nabla_{Zbar} L = factor * L
    nabla_factor: complex          # nabla_Z L = factor * L (worm metric)
    curvature: float               # <R(Z, Zbar) nu_C, nu_C>
    sff_JnuR_sq: float             # |sff(Z, J nu_R)|^2

    def margin(self, eta):
        return (1.0 / self.t - _weight(eta)) * self.sff_JnuR_sq


def s_gamma_reference(params, z2):
    z2 = complex(z2)
    x = math.log(abs(z2) ** 2)
    if abs(x) >= params.a:
        raise ValueError(f"(0, {z2}) is off the degenerate annulus: |log|z2|^2| = {abs(x)} >= {params.a}")
    t = params.t
    sec2 = 1.0 / math.cos(x / t) ** 2
    r2 = abs(z2) ** 2
    return SGammaReference(
        z2=z2,
        x=x,
        t=t,
        alpha=1j / z2,
        nabla_bar_factor=1j / np.conj(z2),
        nabla_factor=(-2.0 * math.tan(x / t) + 1j) / z2,
        curvature=2.0 / t * sec2 / r2,
        sff_JnuR_sq=sec2 / r2,
    )


def sgamma_points(params, count, spread):
    """Deterministic boundary points on the degenerate annulus.

    Log-moduli sweep |x| <= spread * a, clustered toward the ends of the
    interval (Chebyshev nodes) where the reduced inequality is binding;
    angles advance by the golden angle so the points are pairwise distinct.
    A ``spread`` outside (0, 1] raises: past 1 the points leave the annulus.
    """
    if not 0.0 < spread <= 1.0:
        raise ValueError(f"spread must lie in (0, 1], got {spread}")
    half = spread * params.a
    xs = half * np.cos(np.pi * (2.0 * np.arange(count) + 1.0) / (2.0 * count))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for k, x in enumerate(xs):
        z2 = math.exp(x / 2.0) * np.exp(1j * golden * k)
        points.append(BoundaryPoint(z=np.array([0.0, z2], dtype=complex), residual=0.0))
    return points


def sgamma_fiber(count):
    """The fiber direction d/dz_2 at each of ``count`` points, the null direction on S_gamma."""
    return CTVector.holo(np.broadcast_to([0.0, 1.0 + 0.0j], (count, 2)))


def sgamma_comparison(domain, count):
    """What the engine is compared with on S_gamma of a worm ``domain``: one frame over ``count``
    S_gamma points at spread 0.9, the fiber direction at each and each point's
    :class:`SGammaReference`."""
    wp = domain.params["worm"]
    points = sgamma_points(wp, count, spread=0.9)
    return normal_frame(domain, points), sgamma_fiber(count), [s_gamma_reference(wp, p.z[1]) for p in points]


def sgamma_patch_tangent(domain):
    """Patch for the Levi-degenerate annulus of a worm ``domain``.

    Parametrizes z = (0, exp(u/2)) so that log|z_2|^2 = Re u; the imaginary
    part of u is the fiber angle (period 4 pi in u for one loop of z_2^2,
    2 pi covers the circle once in angle arg z_2 = Im u / 2).
    """
    a = domain.params["worm"].a

    def chart(u):
        z2 = np.exp(np.asarray(u) / 2.0)
        return np.stack([np.zeros_like(z2), z2], axis=-1)

    def tangent(u):
        z2 = np.exp(np.asarray(u) / 2.0)
        return np.stack([np.zeros_like(z2), z2 / 2.0], axis=-1)

    return SubmanifoldPatch(
        domain=domain,
        chart=chart,
        tangent=tangent,
        u_range=(-0.9 * a, 0.9 * a),
        v_range=(0.0, 4.0 * np.pi),
    )


# ----------------------------------------------------------------------
# 1-D Riccati reduction
# ----------------------------------------------------------------------

@dataclass
class RiccatiResult:
    gamma: float
    eta: float
    feasible: bool | None
    status: str                    # "feasible" | "infeasible" | "indeterminate"
    blowup_x: float | None = None
    xs: np.ndarray | None = None
    profile: np.ndarray | None = None


def riccati_feasibility(gamma, eta):
    """Closed-form feasibility of the reduced boundary inequality h'' >= k (1 + h'^2).

    On the annulus the inequality for h = h(log|z_2|^2) reduces to a Riccati
    bound with k = eta/(1-eta) on |x| < a = gamma - pi/2.  Its extremal profile
    h' = tan(k x) stays finite there exactly when k a < pi/2; otherwise it blows
    up at x = pi/(2k).
    """
    threshold = riccati_threshold(gamma)
    k = _weight(eta)
    if abs(eta - threshold) < 1e-6:
        return RiccatiResult(gamma=gamma, eta=eta, feasible=None, status="indeterminate")
    a = gamma - math.pi / 2
    if k * a >= math.pi / 2:
        return RiccatiResult(gamma, eta, False, "infeasible", math.pi / (2.0 * k))
    xs = np.linspace(0.0, a, 65)
    return RiccatiResult(gamma, eta, True, "feasible", None, xs, np.tan(k * xs))


def riccati_threshold(gamma):
    """Feasibility threshold in eta of the Riccati reduction: k* = pi/(2a) gives eta* = pi/(2 gamma)."""
    if gamma <= math.pi / 2:
        raise ValueError("gamma must exceed pi/2")
    return math.pi / (2.0 * gamma)
