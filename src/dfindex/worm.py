"""The worm-domain family: defining function, Kaehler metric, closed forms.

The family is the executable ground truth for the whole engine: every frame,
curvature, and margin quantity has a closed form on the Levi-degenerate
annulus ``S = {z_1 = 0, |log|z_2|^2| < gamma - pi/2}``, and the 1-D Riccati
reduction of the boundary inequality reproduces the known index pi/(2 gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp

from . import jets
from .boundary import BoundaryPoint, DomainSpec
from .fields import ChartDomainError, ScalarField
from .geometry import MetricField

__all__ = [
    "WormParams",
    "worm_domain",
    "worm_metric",
    "SGammaReference",
    "s_gamma_reference",
    "sgamma_points",
    "RiccatiResult",
    "riccati_feasibility",
    "riccati_threshold",
]

_U_MAX = 1e8


@dataclass
class WormParams:
    """Parameters of the worm family.

    ``gamma`` sets the winding length (> pi/2).  ``t`` controls the metric
    profile f(x) = cos(x/t)^(2t) and must exceed 2*gamma/pi - 1; pairing the
    metric with an exponent eta additionally needs t < 1/eta - 1.  ``s``
    scales the fiber direction of the metric (chosen by doubling until the
    sampled metric is positive definite when left unset).  ``lam`` is the
    convex smoothing (c, p) in lambda(x) = c * max(0, x^2 - a^2)^p with
    a = gamma - pi/2.
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


def worm_domain(params, metric="euclidean", name=None):
    """Worm domain as a DomainSpec; ``metric`` is "euclidean" or "worm_kahler"."""
    if not isinstance(params, WormParams):
        params = WormParams(**params)
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

    if metric == "euclidean":
        metric_field = MetricField.euclidean(2)
    elif metric == "worm_kahler":
        metric_field = worm_metric(params, box=box)
    else:
        raise ValueError(f"unknown worm metric {metric!r}")

    domain = DomainSpec(
        name=name or f"worm(gamma={params.gamma:g}, metric={metric})",
        n=2,
        r=r_field,
        metric=metric_field,
        box=box,
        interior_point=np.array([-0.5, 1.0], dtype=complex),
        min_abs_coord={1: r2_lo},
        params={"gamma": params.gamma, "worm": params, "metric_key": metric},
    )
    domain.special_sampler = lambda count, seed: _sgamma_sampler(domain, params, count, seed)
    return domain


def worm_metric(params, box=None, positivity_floor=1e-3, seed=1234):
    """Kaehler metric of the worm family with entries per the expanded form.

    g_11 = f(x), g_21 = (z1/z2) f'(x), g_12 = conj, and
    g_22 = |z1|^2/|z2|^2 f''(x) + s/|z2|^2 with x = log|z_2|^2.  When ``s``
    is unset it is chosen by doubling from 1 until the smallest eigenvalue
    sampled over a neighborhood of the closed domain clears
    ``positivity_floor``; an explicit too-small ``s`` raises with the
    minimal passing value.
    """
    if not isinstance(params, WormParams):
        params = WormParams(**params)

    def entries_for(s_value):
        def g11(zs):
            f, _, _ = _f_jets(_log_abs2(zs[1]), params)
            return f

        def g21(zs):
            _, f1, _ = _f_jets(_log_abs2(zs[1]), params)
            return (zs[0] / zs[1]) * f1

        def g12(zs):
            _, f1, _ = _f_jets(_log_abs2(zs[1]), params)
            return (zs[0].conj() / zs[1].conj()) * f1

        def g22(zs):
            _, _, f2 = _f_jets(_log_abs2(zs[1]), params)
            inv = jets.abs2(zs[1]).reciprocal()
            return jets.abs2(zs[0]) * inv * f2 + s_value * inv

        mk = lambda fn, tag: ScalarField(2, fn, name=tag)
        return [[mk(g11, "g11"), mk(g12, "g12")], [mk(g21, "g21"), mk(g22, "g22")]]

    def closure_points(count):
        # neighborhood of the closed domain: |z1| <= 2.05, log|z2|^2 within
        # the reach of lambda < 1 plus padding
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-params.x_max - 0.05, params.x_max + 0.05, size=count)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
        radii = 2.05 * np.sqrt(rng.random(count))
        z2 = np.exp(xs / 2.0) * np.exp(1j * angles[:, 1])
        z1 = radii * np.exp(1j * angles[:, 0])
        return np.stack([z1, z2], axis=1)

    sample = closure_points(300)

    def min_eig(s_value):
        m = MetricField(2, entries_for(s_value), name=f"omega_worm(s={s_value:g})")
        # one batch over the sample; a NaN eigenvalue makes the sample fail
        worst = float(np.min(np.linalg.eigvalsh(m.matrix(sample))[:, 0]))
        return m, worst

    if params.s is not None:
        m, worst = min_eig(params.s)
        if worst < positivity_floor:
            s_try = max(params.s, 1.0)
            for _ in range(30):
                s_try *= 2.0
                _, w2 = min_eig(s_try)
                if w2 >= positivity_floor:
                    break
            raise ValueError(
                f"s = {params.s} leaves the worm metric indefinite "
                f"(min eigenvalue {worst:.3e}); minimal passing s found by doubling: {s_try}"
            )
        return m

    s_try = 1.0
    for _ in range(30):
        m, worst = min_eig(s_try)
        if worst >= positivity_floor:
            params.s = s_try
            return m
        s_try *= 2.0
    raise ValueError(f"no positive-definite s found by doubling at t = {params.t:g}; "
                     "raise t (domain_params.t)")


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
    sff_ZZ: float                  # sff(Z, Z) (vanishes)

    def margin(self, eta):
        return (1.0 / self.t - eta / (1.0 - eta)) * self.sff_JnuR_sq


def s_gamma_reference(params, z2):
    if not isinstance(params, WormParams):
        params = WormParams(**params)
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
        sff_ZZ=0.0,
    )


def sgamma_points(params, count, spread=0.97, clustered=True):
    """Deterministic boundary points on the degenerate annulus.

    Log-moduli sweep |x| <= spread * a, clustered toward the ends of the
    interval (Chebyshev nodes) where the reduced inequality is binding;
    angles advance by the golden angle so the points are pairwise distinct.
    """
    if not isinstance(params, WormParams):
        params = WormParams(**params)
    half = spread * params.a
    if clustered:
        xs = half * np.cos(np.pi * (2.0 * np.arange(count) + 1.0) / (2.0 * count))
    else:
        xs = np.linspace(-half, half, count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for k, x in enumerate(xs):
        z2 = math.exp(x / 2.0) * np.exp(1j * golden * k)
        points.append(BoundaryPoint(z=np.array([0.0, z2], dtype=complex), residual=0.0))
    return points


def _sgamma_sampler(domain, params, count, seed):
    del seed  # deterministic clustered nodes serve every seed identically
    return sgamma_points(params, count, spread=0.99, clustered=True)


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
    """Shooting test for the reduced boundary inequality h'' >= k (1 + h'^2).

    On the annulus the inequality for h = h(log|z_2|^2) reduces to a Riccati
    bound with k = eta/(1-eta) on |x| < gamma - pi/2; the symmetric extremal
    profile u = h' solves u' = k (1 + u^2), u(0) = 0, and feasibility is
    exactly finiteness of u on the open interval.
    """
    if gamma <= math.pi / 2:
        raise ValueError("gamma must exceed pi/2")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    threshold = math.pi / (2.0 * gamma)
    if abs(eta - threshold) < 1e-6:
        return RiccatiResult(gamma=gamma, eta=eta, feasible=None, status="indeterminate")
    a = gamma - math.pi / 2
    k = eta / (1.0 - eta)
    if k == 0.0:
        xs = np.linspace(0.0, a, 33)
        return RiccatiResult(gamma, eta, True, "feasible", None, xs, np.zeros_like(xs))

    def rhs(_, u):
        return [k * (1.0 + u[0] ** 2)]

    def blow_up(_, u):
        return u[0] - _U_MAX

    blow_up.terminal = True
    blow_up.direction = 1.0
    sol = solve_ivp(rhs, (0.0, a), [0.0], method="RK45", rtol=1e-10, atol=1e-12,
                    events=blow_up, dense_output=True, max_step=a / 50.0)
    if sol.t_events[0].size:
        return RiccatiResult(gamma, eta, False, "infeasible", float(sol.t_events[0][0]))
    xs = np.linspace(0.0, a, 65)
    return RiccatiResult(gamma, eta, True, "feasible", None, xs, sol.sol(xs)[0])


def riccati_threshold(gamma, tol=1e-4):
    """Empirical feasibility threshold in eta, bisected with the shooter."""
    lo, hi = 0.0, 1.0 - 1e-9
    if riccati_feasibility(gamma, hi).status == "feasible":
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = riccati_feasibility(gamma, mid)
        if res.status == "indeterminate":
            return mid
        if res.feasible:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
