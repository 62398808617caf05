"""Margin evaluators, convex feasibility search, and the index estimate.

For a fixed exponent eta the boundary inequality at a site (P, Z) reads

    -i beta(Z, Zbar) + ddbar h(Z, Zbar)
        >= eta/(1-eta) |del h(Z) - alpha(Z)|^2 + C |Z|^2,

and with h = sum_i c_i phi_i over a finite basis each site imposes a concave
quadratic constraint on c, so maximizing the worst margin is a convex
program.  A log-barrier Newton method solves it; the weights of its central
path give a Lagrange dual bound on the achievable margin, which certifies
infeasibility for the given basis, sample set and coefficient box when it
drops below the required floor, and which anyone can recompute from the
weights with one Cholesky solve (:func:`dual_bound`).

Bisection over eta assumes feasibility is monotone, which holds whenever a
single h works across exponents (eta/(1-eta) is increasing); each stage keeps
the last feasible certificate's coefficients as its incumbent to keep that
true in practice, and the recorded grid is checked for violations.  The same
monotonicity lets the stages share one central path: every margin is
nonincreasing in eta, so a centred point of the stage at the bracket's upper
end lies strictly inside the barrier's domain at any smaller eta, and each
midpoint starts its Newton steps there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .boundary import (
    _DEPTH_ITER,
    _DEPTH_TOL,
    NormalFrame,
    _col,
    _newton_to_level,
    _point_of,
    levi_data,
    normal_frame,
)
from .fields import ScalarField, seed_coordinate_jets, wirtinger_table
from .forms import NO_CONSTRAINT, _null_points, _null_site_terms, alpha, beta_mixed
from .geometry import (CTVector, _abs_sq, _dot, _lead, _pair, _per_point, _w1_rows, curvature_contraction,
                       norm2)

__all__ = [
    "HBasis",
    "poly_basis",
    "SiteSet",
    "collect_sites",
    "Problem",
    "boundary_margin",
    "geometric_margin",
    "vectorfield_margin",
    "EtaCertificate",
    "dual_bound",
    "feasibility_search",
    "DFEstimate",
    "estimate_index",
    "interior_check",
    "NO_CONSTRAINT",
]

# ----------------------------------------------------------------------
# bases for the auxiliary function h
# ----------------------------------------------------------------------

@dataclass
class HBasis:
    """Finite real basis for h(z) = sum_i c_i phi_i(z).

    ``rows`` maps the coordinate jets z_1 .. z_n of one point to the jets of
    phi_1 .. phi_m there; it is the basis' only evaluator.
    """

    n: int
    m: int
    name: str
    rows: object

    def h_field(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise ValueError(f"basis {self.name!r} needs {self.m} coefficients")

        def fn(zs):
            out = jets.Jet.constant(0.0, 2 * self.n, zs[0].order)
            for c, phi in zip(coeffs, self.rows(zs)):
                if c != 0.0:
                    out = out + c * phi
            return out

        return ScalarField(self.n, fn, name=f"h[{self.name}]")


def poly_basis(n, degree=2):
    """Real polynomials in Re z_j, Im z_j up to total degree ``degree`` (1 or 2)."""
    if degree not in (1, 2):
        raise ValueError(f"poly_basis builds degree 1 or 2, got {degree!r}")

    def rows(zs):
        coords = [part for z in zs for part in (z.real(), z.imag())]
        out = [jets.Jet.constant(1.0, 2 * n, zs[0].order)] + coords
        if degree == 2:
            out += [a * b for i, a in enumerate(coords) for b in coords[i:]]
        return out

    m = 1 + 2 * n + (n * (2 * n + 1) if degree == 2 else 0)
    return HBasis(n=n, m=m, rows=rows, name=f"poly(deg={degree})")


# ----------------------------------------------------------------------
# margin sites
# ----------------------------------------------------------------------

@dataclass
class SiteSet:
    """The eta-independent margin data of N sites (P, Z), one row per site.

    ``B`` (N,) holds -i beta(Z, Zbar), ``A`` (N, m) the rows ddbar phi_j(Z, Zbar),
    ``E`` (N,) alpha(Z) and ``D`` (N, m) the rows del phi_j(Z), so that the
    margin of site i at coefficients c is B_i + A_i . c - eta/(1-eta) |E_i - D_i . c|^2
    (:meth:`margins`, the only place that formula is evaluated).
    """

    basis: HBasis
    B: np.ndarray
    A: np.ndarray
    E: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        # np.real of a complex array is a strided view, and ``A @ c`` on a
        # strided A takes another BLAS path whose last bits differ, so every
        # array is stored C-contiguous
        self.B = np.ascontiguousarray(self.B, dtype=float)
        self.A = np.ascontiguousarray(self.A, dtype=float)
        self.E = np.ascontiguousarray(self.E, dtype=complex)
        self.D = np.ascontiguousarray(self.D, dtype=complex)

    @classmethod
    def empty(cls, basis):
        return cls(basis, np.zeros(0), np.zeros((0, basis.m)), np.zeros(0), np.zeros((0, basis.m)))

    def __len__(self):
        return len(self.B)

    def margins(self, coeffs, eta):
        return self.B + self.A @ coeffs - _weight(eta) * np.abs(self.E - self.D @ coeffs) ** 2


def _weight(eta):
    """k = eta/(1-eta), the weight of |del h - alpha|^2 at exponent eta; raises unless 0 <= eta < 1."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    return eta / (1.0 - eta)


def _basis_rows(basis, frame, zvec):
    """ddbar phi_i(Z, Zbar) and del phi_i(Z) for every basis field, per point: (..., m) each."""
    n = frame.n
    zs = seed_coordinate_jets(frame.z, 2)
    batch = zs[0].shape
    rows = [jet.broadcast(batch) for jet in basis.rows(zs)]
    shape = batch + (len(rows),)

    def stack(parts, rank):
        # the m rows side by side, as one batch axis of length (points x m)
        out = np.stack(parts, axis=-1)
        return out.reshape(out.shape[:rank] + (-1,)) if batch else out

    # one Wirtinger table for all rows of all points
    table = wirtinger_table(jets.Jet(rows[0].m, 2, stack([r.value for r in rows], 0),
                                     stack([r.grad for r in rows], 1),
                                     stack([r.hess for r in rows], 2)), n)
    w1 = table.w1[:n].reshape((n,) + shape)
    mixed = table.mixed_hessian.reshape((n, n) + shape)
    zh = zvec.h[..., None, :]
    grad = _dot(zh, np.ascontiguousarray(_lead(w1, 1)))
    hess = np.real(_pair(zh, np.ascontiguousarray(_lead(mixed, 2)), zh.conj()))
    return hess, grad


def make_site(frame, zvec, basis):
    """The eta-independent margin data of a batch of (P, Z) sites, as a :class:`SiteSet`.

    ``frame`` is a batch frame over the points P (B, n) and ``zvec`` carries
    the directions Z as coefficients (B, n).
    """
    b = beta_mixed(frame, zvec, zvec)
    a = alpha(frame, zvec)
    hess, grad = _basis_rows(basis, frame, zvec)
    return SiteSet(basis, np.real(jets._vmul(-1j, b)), hess, a, grad)


def collect_sites(domain, points, basis, eps_null=1e-7):
    """Null and near-null constraint sites over a boundary sample.

    Includes every (P, Z) whose Levi eigenvalue falls below 1e-3 times the
    largest eigenvalue at P or is null by the absolute cutoff of
    :func:`~dfindex.boundary.levi_data`, with Z normalized to unit metric
    length.  Also returns the smallest strictly-pseudoconvex eigenvalue seen,
    for reporting when no site constrains the search.  The Levi data of all
    points and the sites are each assembled in one batched pass.
    """
    points = list(points)
    if not points:
        return SiteSet.empty(basis), math.inf
    ld = levi_data(normal_frame(domain, points, r_order=2), eps_null=eps_null)
    eigs = ld.eigenvalues
    near_null = ld.null | (eigs < 1e-3 * eigs[:, -1:])
    # np.min keeps a NaN eigenvalue, which ``min`` would drop
    min_pc_eig = float(np.min(eigs[~near_null], initial=math.inf))
    at, zvec = ld.pairs(near_null)
    if not len(at):
        return SiteSet.empty(basis), min_pc_eig
    zvec = zvec * (1.0 / np.sqrt(norm2(ld.frame.G[at], zvec)))[:, None]
    return make_site(NormalFrame(domain, ld.frame.z[at]), zvec, basis), min_pc_eig


@dataclass(frozen=True)
class Problem:
    """One configuration's sites (their ``basis`` is the problem's), the smallest strictly pseudoconvex
    Levi eigenvalue of their points (inf if there is none), and each search's box and floor."""

    domain: object
    sites: SiteSet
    min_pc: float
    box_radius: float
    C_floor: float


# ----------------------------------------------------------------------
# margin evaluators
# ----------------------------------------------------------------------

def boundary_margin(domain, p, zvec, basis, coeffs, eta):
    """Margin of the h-form boundary inequality at (P, Z) with C = 0.

    Returns [-i beta(Z, Zbar) + ddbar h(Z, Zbar)]
    - eta/(1-eta) |del h(Z) - alpha(Z)|^2 for the given Z (every term is
    quadratic in Z, so unit-normalizing Z just rescales the margin).
    """
    site = make_site(normal_frame(domain, [p]), CTVector(zvec.h[None], zvec.a[None]), basis)
    return float(site.margins(np.asarray(coeffs, dtype=float), eta)[0])


def geometric_margin(fr, zvec, eta):
    """Margin of the extrinsic-curvature inequality at a null site:

    sum_j |sff(Z, W_j)|^2 + (1/2) <R(Z, Zbar) nu_C, nu_C>
        - eta/(1-eta) |sff(Z, J nu_R)|^2.

    Returns the no-constraint sentinel (+inf) where the null space is empty.
    """
    k = _weight(eta)
    null, sff_sum, half_curv = _null_site_terms(fr, zvec)
    sff_j = _abs_sq(fr.hess_r(zvec, fr.nu_R.J())) * fr.norm2(fr.X)
    return _per_point(np.where(null, sff_sum + half_curv - k * sff_j, NO_CONSTRAINT))


def vectorfield_margin(fr, zvec, eta):
    """Margin of the normal-field inequality at a null site:

    (1/2) |nabla_{Zbar} nu_C - <nabla_{Zbar} nu_C, nu_C> nu_C|^2
        + (1/2) <R(Z, Zbar) nu_C, nu_C>
        - eta/(1-eta) |<nabla_{Zbar} nu_C, nu_C>|^2.

    Agrees with :func:`geometric_margin`; computed independently from jets of
    the unit normal field.
    """
    k = _weight(eta)
    _, null = _null_points(fr, zvec)
    n, l_jets, mjets = fr.n, fr.L_jets, fr.metric_jets
    len2 = sum((mjets[j][k] * l_jets[j] * l_jets[k].conj() for j in range(n) for k in range(n)),
               jets.Jet.constant(0.0, 2 * n, 2)).real()
    scale = jets.power(len2, -0.5)
    w1 = _w1_rows([j * scale for j in l_jets], n)
    # nabla_{Zbar} nu_C, plain derivative
    d_nu = CTVector.holo((w1[..., n:] @ zvec.h.conj()[..., None])[..., 0])
    proj = fr.inner(d_nu, fr.nu_C)
    tangential = d_nu - fr.nu_C * _col(proj)
    curv = curvature_contraction(fr.chern, zvec, fr.nu_C)
    margin = 0.5 * fr.norm2(tangential) + 0.5 * curv - k * _abs_sq(proj)
    return _per_point(np.where(null, margin, NO_CONSTRAINT))


# ----------------------------------------------------------------------
# feasibility search (log-barrier Newton method with a Lagrange dual bound)
# ----------------------------------------------------------------------

@dataclass
class EtaCertificate:
    eta: float
    basis_id: str
    coeffs: np.ndarray
    min_margin: float
    upper_bound: float
    n_sites: int
    feasible: bool
    status: str
    iterations: int
    multipliers: tuple | None = None    # (site, box) weights giving a finite upper_bound
    central: tuple | None = None        # the last centred point (c, t, mu); not reported

    def to_json_dict(self, seed=None):
        """Plain JSON fields; a non-finite margin, bound or gap becomes None."""

        def finite(x):
            return float(x) if math.isfinite(x) else None

        lam_nu = self.multipliers
        return {
            "eta": self.eta,
            "basis_id": self.basis_id,
            "coeffs": [float(c) for c in np.atleast_1d(self.coeffs)],
            "min_margin": finite(self.min_margin),
            "upper_bound": finite(self.upper_bound),
            "gap": finite(self.upper_bound - self.min_margin),
            "multipliers": None if lam_nu is None else {"sites": lam_nu[0].tolist(),
                                                         "box": lam_nu[1].tolist()},
            "iterations": self.iterations,
            "n_sites": self.n_sites,
            "feasible": self.feasible,
            "status": self.status,
            "seed": seed,
        }

    @property
    def decided(self):
        """Feasible, or infeasible with a dual bound below the floor."""
        return self.feasible or self.status == "infeasible_certified"


def dual_bound(sites, eta, lam, nu, box_radius):
    """Lagrange dual bound on the best minimum site margin over the coefficient box.

    For site weights ``lam`` >= 0 summing to 1 and box weights ``nu`` > 0,
    weak duality gives for every c with |c_j| <= R = ``box_radius``

        min_i margin_i(c) <= sum_i lam_i margin_i(c) + sum_j nu_j (R^2 - c_j^2)
                          <= r + p^T Q^{-1} p / 4,

    where Q = k Re(D* Lam D) + diag(nu), p = A^T lam + 2k Re(D* Lam E),
    r = lam . B - k sum_i lam_i |E_i|^2 + R^2 sum_j nu_j and k = eta/(1-eta).
    Returns +inf (no bound) when the Cholesky factorisation of Q fails or
    the value is not finite.
    """
    k = _weight(eta)
    lam, nu = np.asarray(lam, dtype=float), np.asarray(nu, dtype=float)
    weighted = sites.D * lam[:, None]
    Q = k * np.real(sites.D.conj().T @ weighted) + np.diag(nu)
    p = sites.A.T @ lam + 2.0 * k * np.real(weighted.conj().T @ sites.E)
    r = lam @ sites.B - k * (lam @ np.abs(sites.E) ** 2) + box_radius**2 * nu.sum()
    try:
        y = np.linalg.solve(np.linalg.cholesky(Q), p)
    except np.linalg.LinAlgError:
        return math.inf
    value = float(r + 0.25 * (y @ y))
    return value if math.isfinite(value) else math.inf


_BOUND_TOL = 1e-6   # the gap at which the upper bound decides or closes a feasibility search


def feasibility_search(domain, eta, basis, sites, *, box_radius, C_floor=1e-4, c0=None,
                       max_iter=400, start=None):
    """Maximize the minimum site margin over the basis coefficients.

    Returns a certificate; it is feasible iff the best minimum margin
    reaches ``C_floor``.  Damped Newton steps follow the central path of
    max t s.t. margin_i(c) >= t, |c_j| < R = ``box_radius``: they minimize
    -t/mu - sum log(margin_i(c) - t) - sum log(R^2 - c_j^2), and mu shrinks
    after each centring, where :func:`dual_bound` turns the central weights
    into ``upper_bound``.  ``"infeasible_certified"`` means that bound lies
    below the floor.  A step that is not finite, or a line search that finds
    no point inside the barrier's domain with enough decrease, ends the
    search as ``"newton_failure"``.  ``c0`` seeds the incumbent.

    ``start`` is a certificate of a search on the same sites and box at an
    exponent >= ``eta``; the steps start from its last centred point
    (c, t, mu), which stays strictly inside the barrier's domain because no
    margin grows with eta (a point outside it raises).  Without a start, or
    from one that never centred, they start at c = 0 with t below every
    margin.
    """
    k = _weight(eta)
    if start is not None and start.eta < eta:
        raise ValueError(f"a search at eta = {eta} cannot start from a stage at a smaller "
                         f"eta = {start.eta}")
    m = basis.m
    if len(sites) == 0:
        return EtaCertificate(eta=eta, basis_id=basis.name, coeffs=np.zeros(m),
                              min_margin=NO_CONSTRAINT, upper_bound=NO_CONSTRAINT,
                              n_sites=0, feasible=True, status="no_null_sites", iterations=0)
    R2 = float(box_radius) ** 2
    best_c = np.zeros(m) if c0 is None else np.asarray(c0, dtype=float).copy()
    best_val = float(sites.margins(best_c, eta).min())
    ub, multipliers = math.inf, None
    status = "iteration_cap"
    decision_slack = max(10.0 * C_floor, C_floor + 1e-3)
    iterations = 0
    central = None      # this search's last centred point
    if start is None or start.central is None:
        # the central path starts at c = 0, with t below every margin
        c = np.zeros(m)
        f = sites.margins(c, eta)
        mu = max(1.0, abs(float(f.min())))
        t = float(f.min()) - mu
    else:
        c, t, mu = start.central
        f = sites.margins(c, eta)
        if not (np.all(f > t) and np.all(c**2 < R2)):
            # from other sites or another box: its weights would give no bound
            raise ValueError("the start point lies outside the barrier's domain of these sites")

    def barrier(c, t, f):
        s, room = f - t, R2 - c**2
        if not (np.all(s > 0.0) and np.all(room > 0.0)):
            return math.inf
        return -t / mu - np.log(s).sum() - np.log(room).sum()

    def newton(H, grad):
        try:
            step = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:    # a singular Hessian
            return None, math.nan
        return step, -float(grad @ step)

    for iterations in range(1, max_iter + 1):
        if f.min() > best_val:
            best_val, best_c = float(f.min()), c.copy()
        if best_val >= decision_slack:
            status = "feasible_early_exit"
            break
        if ub < C_floor - _BOUND_TOL:
            status = "infeasible_certified"
            break
        if ub - best_val <= _BOUND_TOL:
            status = "converged"
            break
        if best_val >= C_floor and ub < decision_slack:
            # feasible, and the bound shows the early-exit slack is out of reach
            status = "feasible_bounded"
            break
        # Newton step for the barrier at (c, t); g_i is the gradient of margin_i
        w = 1.0 / (f - t)
        room = R2 - c**2
        g = sites.A + 2.0 * k * np.real(np.conj(sites.E - sites.D @ c)[:, None] * sites.D)
        J = np.column_stack([g, -np.ones(len(w))]) * w[:, None]
        H = J.T @ J
        H[:m, :m] += (2.0 * k * np.real(sites.D.conj().T @ (sites.D * w[:, None]))
                      + np.diag(2.0 * (R2 + c**2) / room**2))
        grad = np.append(2.0 * c / room - w @ g, w.sum() - 1.0 / mu)
        step, decrement = newton(H, grad)
        if decrement <= 1e-6:
            # centred: the central weights give a dual bound; mu shrinks, and
            # only the t entry of the gradient depends on it
            lam, nu = w / w.sum(), (1.0 / room) / w.sum()
            bound = dual_bound(sites, eta, lam, nu, box_radius)
            if bound < ub:
                ub, multipliers = bound, (lam, nu)
            central = (c, t, mu)
            mu *= 0.2
            grad[m] = w.sum() - 1.0 / mu
            step, decrement = newton(H, grad)
        if not math.isfinite(decrement):
            status = "newton_failure"
            break
        # backtracking line search that stays strictly inside the domain
        phi, alpha = barrier(c, t, f), 1.0
        while alpha > 1e-12:
            c_new, t_new = c + alpha * step[:m], t + alpha * step[m]
            f_new = sites.margins(c_new, eta)
            if barrier(c_new, t_new, f_new) <= phi - 0.25 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            status = "newton_failure"
            break
        c, t, f = c_new, t_new, f_new
    feasible = bool(best_val >= C_floor)
    if feasible:
        best_c, best_val = _shrink_certificate(sites, eta, best_c, C_floor)
    return EtaCertificate(eta=eta, basis_id=basis.name, coeffs=best_c, min_margin=best_val,
                          upper_bound=ub, n_sites=len(sites), feasible=feasible,
                          status=status, iterations=iterations, multipliers=multipliers,
                          central=central)


def _shrink_certificate(sites, eta, coeffs, C_floor):
    """Smallest multiple of the found coefficients that still certifies.

    Site margins are concave in c, so {min margin >= target} is convex and
    the feasible scalars along the ray to zero form an interval; bisection
    on true margins picks a tame certificate (half the achieved margin is
    retained), which keeps the auxiliary function h small away from the
    constraint sites.
    """
    best = float(sites.margins(coeffs, eta).min())
    target = max(C_floor, 0.5 * best)

    def value(tau):
        return float(sites.margins(tau * coeffs, eta).min())

    if value(0.0) >= target:
        return np.zeros_like(coeffs), value(0.0)
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if value(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi * coeffs, value(hi)


# ----------------------------------------------------------------------
# eta bisection
# ----------------------------------------------------------------------

@dataclass
class DFEstimate:
    eta_lo: float
    eta_hi: float
    certificates: dict      # eta -> EtaCertificate, in the order the stages ran
    warnings: list

    @property
    def records(self):
        """One row per stage, in the order the stages ran."""
        return [{"eta": eta, "feasible": cert.feasible,
                 "min_margin": None if cert.min_margin == NO_CONSTRAINT else float(cert.min_margin),
                 "status": cert.status}
                for eta, cert in self.certificates.items()]

    def summary(self):
        """The bracket at two decimals, rounded outward so that it contains [eta_lo, eta_hi]."""
        lo = _two_decimals(self.eta_lo, -1)
        if self.eta_hi < 1.0:
            return f"DF in [{lo}, {_two_decimals(self.eta_hi, 1)}]"
        if [cert.status for cert in self.certificates.values()] == ["no_null_sites"]:
            return f"DF >= {lo} (grid cap; no null site constrains the estimate)"
        return f"DF >= {lo} (grid cap)"


def _two_decimals(x, side):
    """The 2-decimal number nearest x on ``side``: the largest <= x (-1) or the smallest >= x (+1).

    A decimal d counts as float(d), so 0.99 rounds to itself on either side.
    """
    cents = round(x * 100)
    if (cents / 100 - x) * side < 0:
        cents += side
    return f"{cents / 100:.2f}"


def estimate_index(problem, *, eta_cap=0.99, tol_eta=0.01):
    """Bisection over eta on ``problem``, one :func:`feasibility_search` per stage.

    Each stage keeps the coefficients of the last feasible certificate as its
    incumbent.  The cap and eta = 0 stages start their Newton steps at c = 0;
    every midpoint starts from the last centred point of the stage at the
    bracket's upper end (the cap stage until a midpoint is certified
    infeasible), or at c = 0 if that stage never centred.  Without sites the
    cap stage is feasible (``no_null_sites``) and ends the estimate.  A stage
    that ends neither feasible nor certified infeasible (iteration cap, Newton
    failure) is recorded with a warning and ends the bisection without moving
    the bracket; the monotonicity scan reads only the decided stages.
    """
    certificates, warnings = {}, []

    def run(eta, c_seed, start):
        cert = feasibility_search(problem.domain, eta, problem.sites.basis, problem.sites, c0=c_seed,
                                  start=start, C_floor=problem.C_floor, box_radius=problem.box_radius)
        certificates[float(eta)] = cert
        if not cert.decided:
            warnings.append(f"eta = {eta} undecided ({cert.status}); it moves neither end of the bracket")
        return cert

    cert_hi = run(eta_cap, None, None)
    if cert_hi.feasible:
        return DFEstimate(eta_lo=eta_cap, eta_hi=1.0, certificates=certificates, warnings=warnings)
    lo, hi = 0.0, eta_cap
    cert_lo = run(0.0, None, None)
    c_seed = cert_lo.coeffs if cert_lo.feasible else None
    if cert_lo.status == "infeasible_certified":
        warnings.append("eta = 0 infeasible for this basis and sample set")
    while hi - lo > tol_eta:
        mid = 0.5 * (lo + hi)
        cert = run(mid, c_seed, cert_hi)
        if cert.feasible:
            lo, c_seed = mid, cert.coeffs
        elif cert.decided:
            hi, cert_hi = mid, cert
        else:
            break       # without a certificate no later midpoint is sound

    # only decided stages: an undecided one says nothing about feasibility
    feas_by_eta = sorted((eta, cert.feasible) for eta, cert in certificates.items() if cert.decided)
    for (e1, f1), (e2, f2) in zip(feas_by_eta, feas_by_eta[1:]):
        if (not f1) and f2:
            warnings.append(f"non-monotone feasibility between eta = {e1} and {e2} (sampling noise)")
    return DFEstimate(eta_lo=lo, eta_hi=hi, certificates=certificates, warnings=warnings)


# ----------------------------------------------------------------------
# interior verification
# ----------------------------------------------------------------------

def interior_check(domain, h_field, eta, points, C=0.0, depths=None):
    """Smallest eigenvalue of the rescaled complex Hessian of -(-rho)^eta.

    With rho = r e^{-h}, evaluates eta^{-1} (-rho)^{-eta} ddbar(-(-rho)^eta)
    minus C times the metric through the expanded identity

        (-r)^{-1} ddbar r + (1-eta)(-r)^{-2} dr (x) dbar r
        - eta (-r)^{-1} (dh (x) dbar r + dr (x) dbar h)
        - eta dh (x) dbar h + ddbar h,

    which stays numerically stable arbitrarily close to the boundary (at
    eta = 0, the logarithmic variant).  Samples lie on inward normals of the
    boundary ``points`` at the requested ``depths`` (by default seven from
    1e-4 to 1e-2), one row per point and depth (depths varying fastest).
    One batched Newton iteration, that of :func:`point_at_depth`, reaches
    them all, and one frame and one jet of h evaluate them.  The first
    failing sample raises (the frame's own checks, over the samples before
    the first failed iteration, come first), and so does an empty list of
    depths or points: zero samples show nothing.
    """
    _weight(eta)    # the range check
    if depths is None:
        depths = np.geomspace(1e-4, 1e-2, 7)
    points = list(points)
    for name, given in (("depths", depths), ("points", points)):
        if len(given) == 0:
            raise ValueError(f"interior_check needs at least one sample; {name} is empty")
    n = domain.n
    base = _point_of(points).reshape(-1, n)
    starts = np.repeat(base, len(depths), axis=0)
    levels = np.tile(np.asarray(depths, dtype=float), len(base))
    samples, _, errors = _newton_to_level(domain, starts, -levels, _DEPTH_TOL, _DEPTH_ITER)
    reached = next((k for k, err in enumerate(errors) if err is not None), len(errors))
    if reached:
        fr = NormalFrame(domain, samples[:reached], r_order=2)
        rv = np.real(fr.r_jet.value)
        k = np.argmax(rv >= 0.0)        # the first sample outside, if any
        if rv[k] >= 0.0:
            raise ValueError(f"interior sample has rho >= 0 at {samples[k]} (r = {rv[k]})")
    if reached < len(errors):
        raise errors[reached]
    h_field = h_field or ScalarField(n, lambda zs: 0.0 * zs[0])     # no h: h = 0
    htab = wirtinger_table(h_field.jet(fr.z, 2), n)
    u, w = fr.u[..., None], np.moveaxis(htab.w1[:n], 0, -1)[..., None]
    hh = np.moveaxis(htab.mixed_hessian, (0, 1), (-2, -1))
    ct = lambda a: np.swapaxes(a.conj(), -1, -2)
    rv = rv[:, None, None]
    mat = (fr.hr / (-rv)
           + (1.0 - eta) / rv**2 * (u @ ct(u))
           - eta / (-rv) * (w @ ct(u) + u @ ct(w))
           - eta * (w @ ct(w))
           + hh
           - C * fr.G)
    mat = 0.5 * (mat + ct(mat))
    # eigvalsh can return finite numbers for a matrix holding a NaN
    finite = np.isfinite(mat).all(axis=(-2, -1))
    eig = np.where(finite, np.linalg.eigvalsh(np.where(finite[:, None, None], mat, 0.0))[:, 0], math.nan)
    rows = [{"z": z, "depth": depth, "min_eig": e}
            for z, depth, e in zip(fr.z, levels.tolist(), eig.tolist())]
    # np.min keeps a NaN sample, which ``min`` would drop
    min_eig = float(np.min(eig, initial=math.inf))
    return {"eta": float(eta), "C": float(C), "min_eig": min_eig, "rows": rows,
            "positive": bool(min_eig > 0.0)}
