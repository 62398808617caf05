"""Margin evaluators, convex feasibility search, and the index estimate.

For a fixed exponent eta the boundary inequality at a site (P, Z) reads

    -i beta(Z, Zbar) + ddbar h(Z, Zbar)
        >= eta/(1-eta) |del h(Z) - alpha(Z)|^2 + C |Z|^2,

and with h = sum_i c_i phi_i over a finite basis each site imposes a concave
quadratic constraint on c, so maximizing the worst margin is a convex
program.  It is solved by Kelley cutting planes with LP subproblems (one
warm-started HiGHS model per search); linearizations of concave margins
over-estimate them, so the LP value is a true upper bound and certifies
infeasibility for the given basis and sample set when it drops below the
required floor.

Bisection over eta assumes feasibility is monotone, which holds whenever a
single h works across exponents (eta/(1-eta) is increasing); each stage is
seeded with the previous certificate's coefficients to keep that true in
practice, and the recorded grid is checked for violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import linprog

try:
    # private binding, already loaded by scipy.optimize; SciPy releases
    # without it solve each Kelley LP from scratch through linprog
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs
except ImportError:
    _Highs = None

from . import jets
from .boundary import frame_at, levi_data, normal_frame, point_at_depth, sample_boundary
from .fields import ScalarField, seed_coordinate_jets, wirtinger_table
from .forms import alpha, beta_mixed
from .geometry import CTVector, curvature_contraction

__all__ = [
    "HBasis",
    "worm_reduction_basis",
    "poly_basis",
    "MarginSite",
    "SiteSet",
    "collect_sites",
    "boundary_margin",
    "geometric_margin",
    "vectorfield_margin",
    "EtaCertificate",
    "feasibility_search",
    "DFEstimate",
    "estimate_index",
    "interior_check",
    "NO_CONSTRAINT",
]

NO_CONSTRAINT = math.inf


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


def _chebyshev_jets(u, degree):
    """T_0(u) .. T_degree(u) of a jet by the three-term recurrence."""
    out = [jets.Jet.constant(1.0, u.m, u.order), u]
    for _ in range(2, degree + 1):
        out.append(2.0 * (u * out[-1]) - out[-2])
    return out[: degree + 1]


def _soft_clamp(u, width=0.005):
    """Identity on |u| <= 1, saturating smoothly to +-(1 + width) outside.

    Twice continuously differentiable at the junction; keeps Chebyshev
    basis fields bounded on the whole chart so a certified h stays tame far
    from the constraint sites.
    """
    v = np.real(u.value)
    if abs(v) <= 1.0:
        return u
    sgn = 1.0 if v > 0 else -1.0
    return sgn * (1.0 + width * jets.tanh((u * sgn - 1.0) * (1.0 / width)))


def worm_reduction_basis(gamma, degree=20, spread=0.97):
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
        x = jets.log(jets.abs2(zs[1]))
        return _chebyshev_jets(_soft_clamp(x * inv), degree) + [jets.cos(x), jets.sin(x)]

    return HBasis(n=2, m=degree + 3, rows=rows,
                  name=f"log|z2|^2(deg={degree},harmonics=1,scale={x_scale:g})")


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
class MarginSite:
    z: np.ndarray
    zvec: CTVector          # unit null (or near-null) direction
    levi_eig: float
    beta_term: float        # -i beta(Z, Zbar)
    alpha_val: complex
    basis_hess: np.ndarray  # ddbar phi_i(Z, Zbar), real
    basis_grad: np.ndarray  # del phi_i(Z), complex


@dataclass
class SiteSet:
    sites: list
    basis: HBasis
    B: np.ndarray = dc_field(init=False)
    A: np.ndarray = dc_field(init=False)
    E: np.ndarray = dc_field(init=False)
    D: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        count = len(self.sites)
        self.B = np.array([s.beta_term for s in self.sites], dtype=float)
        self.E = np.array([s.alpha_val for s in self.sites], dtype=complex)
        if count:
            self.A = np.array([s.basis_hess for s in self.sites], dtype=float)
            self.D = np.array([s.basis_grad for s in self.sites], dtype=complex)
        else:
            self.A = np.zeros((0, self.basis.m))
            self.D = np.zeros((0, self.basis.m), dtype=complex)

    def __len__(self):
        return len(self.sites)

    def margins(self, coeffs, eta):
        k = eta / (1.0 - eta)
        return self.B + self.A @ coeffs - k * np.abs(self.E - self.D @ coeffs) ** 2


def _basis_rows(basis, frame, zvec):
    n = frame.n
    hess_row = np.empty(basis.m)
    grad_row = np.empty(basis.m, dtype=complex)
    zs = seed_coordinate_jets(frame.z, 2)
    for i, jet in enumerate(basis.rows(zs)):
        table = wirtinger_table(jet, n)
        grad_row[i] = zvec.h @ table.w1[:n]
        hess_row[i] = float(np.real(zvec.h @ table.mixed_hessian @ zvec.h.conj()))
    return hess_row, grad_row


def make_site(domain, frame, zvec, basis, levi_eig=0.0):
    """Assemble the eta-independent margin data of one (P, Z) site."""
    b = beta_mixed(domain, frame.z, zvec, zvec, frame=frame)
    beta_term = float(np.real(-1j * b))
    a = alpha(domain, frame.z, zvec, frame=frame)
    hess_row, grad_row = _basis_rows(basis, frame, zvec)
    return MarginSite(z=frame.z, zvec=zvec, levi_eig=float(levi_eig), beta_term=beta_term,
                      alpha_val=a, basis_hess=hess_row, basis_grad=grad_row)


def collect_sites(domain, points, basis, eps_null=1e-7, relaxed_cutoff=1e-3):
    """Null and near-null constraint sites over a boundary sample.

    Includes every (P, Z) whose Levi eigenvalue falls below the relaxed
    cutoff ``relaxed_cutoff * max_eigenvalue`` (plus the absolute null
    cutoff), with Z normalized to unit metric length.  Also returns the
    smallest strictly-pseudoconvex eigenvalue seen, for reporting when no
    site constrains the search.
    """
    sites = []
    min_pc_eig = math.inf
    for p in points:
        ld = levi_data(domain, p, eps_null=eps_null)
        lam_max = float(ld.eigenvalues[-1])
        cutoff = max(relaxed_cutoff * lam_max, eps_null * (lam_max + 1.0))
        for idx, eig in enumerate(ld.eigenvalues):
            coeffs = sum(ld.eigenvectors[j, idx] * ld.basis[j].h for j in range(len(ld.basis)))
            zvec = CTVector.holo(coeffs)
            zvec = zvec * (1.0 / math.sqrt(ld.frame.norm2(zvec)))
            if eig < cutoff:
                sites.append(make_site(domain, ld.frame, zvec, basis, levi_eig=eig))
            else:
                min_pc_eig = min(min_pc_eig, float(eig))
    return SiteSet(sites=sites, basis=basis), min_pc_eig


# ----------------------------------------------------------------------
# margin evaluators
# ----------------------------------------------------------------------

def boundary_margin(domain, p, zvec, basis, coeffs, eta, frame=None):
    """Margin of the h-form boundary inequality at (P, Z) with C = 0.

    Returns [-i beta(Z, Zbar) + ddbar h(Z, Zbar)]
    - eta/(1-eta) |del h(Z) - alpha(Z)|^2 for the given Z (every term is
    quadratic in Z, so unit-normalizing Z just rescales the margin).
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    fr = frame if frame is not None else normal_frame(domain, p)
    site = make_site(domain, fr, zvec, basis)
    coeffs = np.asarray(coeffs, dtype=float)
    k = eta / (1.0 - eta)
    return float(site.beta_term + site.basis_hess @ coeffs
                 - k * abs(site.alpha_val - site.basis_grad @ coeffs) ** 2)


def _null_checked(domain, p, zvec, frame):
    ld = levi_data(domain, frame if frame is not None else p)
    if not ld.null_basis:
        return ld, None
    ld.check_null(zvec)
    return ld, ld.frame


def geometric_margin(domain, p, zvec, eta, frame=None):
    """Margin of the extrinsic-curvature inequality at a null site:

    sum_j |sff(Z, W_j)|^2 + (1/2) <R(Z, Zbar) nu_C, nu_C>
        - eta/(1-eta) |sff(Z, J nu_R)|^2.

    Returns the no-constraint sentinel (+inf) where the null space is empty.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    ld, fr = _null_checked(domain, p, zvec, frame)
    if fr is None:
        return NO_CONSTRAINT
    xnorm2 = fr.norm2(fr.X)
    sff_sum = sum(abs(fr.hess_r(zvec, wj)) ** 2 for wj in ld.basis) * xnorm2
    curv = curvature_contraction(domain.metric, fr.z, zvec, fr.nu_C, frame=fr.chern(2))
    j_nu = fr.nu_R.J()
    sff_j = abs(fr.hess_r(zvec, j_nu)) ** 2 * xnorm2
    k = eta / (1.0 - eta)
    return float(sff_sum + 0.5 * curv - k * sff_j)


def vectorfield_margin(domain, p, zvec, eta, frame=None):
    """Margin of the normal-field inequality at a null site:

    (1/2) |nabla_{Zbar} nu_C - <nabla_{Zbar} nu_C, nu_C> nu_C|^2
        + (1/2) <R(Z, Zbar) nu_C, nu_C>
        - eta/(1-eta) |<nabla_{Zbar} nu_C, nu_C>|^2.

    Agrees with :func:`geometric_margin`; computed independently from jets of
    the unit normal field.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    ld, fr = _null_checked(domain, p, zvec, frame)
    if fr is None:
        return NO_CONSTRAINT
    n = domain.n
    l_jets = fr.L_jets()
    mjets = domain.metric.jets(fr.z, 2)
    len2 = sum((mjets[j][k] * l_jets[j] * l_jets[k].conj() for j in range(n) for k in range(n)),
               jets.Jet.constant(0.0, 2 * n, 2)).real()
    scale = jets.power(len2, -0.5)
    nu_jets = [l_jets[i] * scale for i in range(n)]
    w1 = np.array([wirtinger_table(j, n).w1 for j in nu_jets])
    d_nu = CTVector.holo(w1[:, n:] @ zvec.h.conj())   # nabla_{Zbar} nu_C, plain derivative
    proj = fr.inner(d_nu, fr.nu_C)
    tangential = d_nu - proj * fr.nu_C
    curv = curvature_contraction(domain.metric, fr.z, zvec, fr.nu_C, frame=fr.chern(2))
    k = eta / (1.0 - eta)
    return float(0.5 * fr.norm2(tangential) + 0.5 * curv - k * abs(proj) ** 2)


# ----------------------------------------------------------------------
# feasibility search (Kelley cutting planes over LP subproblems)
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

    def to_json_dict(self, seed=None):
        """Plain JSON fields; a non-finite margin, bound or gap becomes None."""

        def finite(x):
            return float(x) if math.isfinite(x) else None

        return {
            "eta": self.eta,
            "basis_id": self.basis_id,
            "coeffs": [float(c) for c in np.atleast_1d(self.coeffs)],
            "min_margin": finite(self.min_margin),
            "upper_bound": finite(self.upper_bound),
            "gap": finite(self.upper_bound - self.min_margin),
            "iterations": self.iterations,
            "n_sites": self.n_sites,
            "feasible": self.feasible,
            "status": self.status,
            "seed": seed,
        }

    @property
    def decided(self):
        """Feasible, or infeasible with a cutting-plane bound below the floor."""
        return self.feasible or self.status == "infeasible_certified"


class _CutModel:
    """The Kelley LP of one search: max t s.t. each cut row . (c, t) <= rhs, |c_i| <= box.

    With SciPy's HiGHS binding the model lives for the whole search: each
    block of cuts joins it through ``addRows`` and every solve restarts the
    dual simplex from the previous optimal basis.  Without the binding each
    solve hands all cuts so far to ``linprog``.
    """

    def __init__(self, m, box_radius):
        self.m = m
        self.bound = np.append(np.full(m, float(box_radius)), np.inf)
        self.highs = None if _Highs is None else _Highs()
        if self.highs is None:
            self.rows, self.rhs = np.empty((0, m + 1)), np.empty(0)
            return
        self.highs.setOptionValue("output_flag", False)
        self.highs.addVars(m + 1, -self.bound, self.bound)
        self.highs.changeColCost(m, -1.0)

    def add(self, rows, rhs):
        """Append the cuts ``rows @ (c, t) <= rhs``; ``rows`` has shape (k, m + 1)."""
        if self.highs is None:
            self.rows = np.vstack([self.rows, rows])
            self.rhs = np.concatenate([self.rhs, rhs])
            return
        k, width = rows.shape
        self.highs.addRows(k, np.full(k, -np.inf), rhs, rows.size,
                           np.arange(0, k * width, width, dtype=np.int32),
                           np.tile(np.arange(width, dtype=np.int32), k), rows.ravel())

    def solve(self):
        """The optimal (c, t), or None when the LP is not solved to optimality."""
        if self.highs is None:
            res = linprog(np.append(np.zeros(self.m), -1.0), A_ub=self.rows, b_ub=self.rhs,
                          bounds=list(zip(-self.bound, self.bound)), method="highs")
            return res.x if res.success else None
        self.highs.run()
        if self.highs.getModelStatus() != HighsModelStatus.kOptimal:
            # a hot start can end short of optimal on an ill-conditioned
            # basis (seen at degree 40); solve once more without the basis
            self.highs.clearSolver()
            self.highs.run()
            if self.highs.getModelStatus() != HighsModelStatus.kOptimal:
                return None
        return np.array(self.highs.getSolution().col_value)


def feasibility_search(domain, eta, basis, sites, C_floor=1e-4, tol=1e-6,
                       c0=None, box_radius=100.0, max_iter=None):
    """Maximize the minimum site margin over the basis coefficients.

    Returns a certificate; it is feasible iff the best minimum margin
    reaches ``C_floor``.  The LP value bounds the achievable minimum margin
    from above (within the coefficient box), so ``status ==
    "infeasible_certified"`` means no h in this basis can satisfy the
    sampled constraints.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    m = basis.m
    if len(sites) == 0:
        return EtaCertificate(eta=eta, basis_id=basis.name, coeffs=np.zeros(m),
                              min_margin=NO_CONSTRAINT, upper_bound=NO_CONSTRAINT,
                              n_sites=0, feasible=True, status="no_null_sites", iterations=0)
    if max_iter is None:
        max_iter = max(60, min(10 * m * len(sites), 400))
    k = eta / (1.0 - eta)
    c = np.zeros(m) if c0 is None else np.asarray(c0, dtype=float).copy()
    model = _CutModel(m, box_radius)
    best_c, best_val = c.copy(), -math.inf
    ub = math.inf
    status = "iteration_cap"
    decision_slack = max(10.0 * C_floor, C_floor + 1e-3)
    iterations = 0

    def add_cuts(at, vals):
        # linearize the concave margins of the worst sites at ``at``
        worst = np.argsort(vals)[: min(8, len(vals))]
        D = sites.D[worst]
        resid = sites.E[worst] - D @ at
        g = sites.A[worst] + 2.0 * k * np.real(np.conj(resid)[:, None] * D)
        b = vals[worst] - g @ at
        # normalize each row (t - g.c <= b) so the LP stays well scaled
        scale = 1.0 / np.maximum(np.maximum(1.0, np.abs(g).max(axis=1)), np.abs(b))
        model.add(np.column_stack([-g * scale[:, None], scale]), b * scale)

    for iterations in range(1, max_iter + 1):
        vals = sites.margins(c, eta)
        fval = float(vals.min())
        if fval > best_val:
            best_val, best_c = fval, c.copy()
        if best_val >= decision_slack:
            status = "feasible_early_exit"
            break
        add_cuts(c, vals)
        x = model.solve()
        if x is None:
            status = "lp_failure"
            break
        ub = float(x[-1])
        c_lp = x[:m]
        # in-out step: the margins are concave, so scan the segment from the
        # incumbent to the LP point and keep the best interpolate
        if np.isfinite(best_val):
            lam = np.linspace(0.0, 1.0, 9)[1:]
            cands = best_c[None, :] + lam[:, None] * (c_lp - best_c)[None, :]
            cand_vals = np.array([sites.margins(ci, eta).min() for ci in cands])
            pick = int(np.argmax(cand_vals))
            if float(cand_vals[pick]) > best_val:
                best_val = float(cand_vals[pick])
                best_c = cands[pick].copy()
        c = c_lp
        if ub < C_floor - tol:
            status = "infeasible_certified"
            break
        if ub - best_val <= tol:
            status = "converged"
            break
        if best_val >= decision_slack:
            status = "feasible_early_exit"
            break
    feasible = bool(best_val >= C_floor)
    if feasible:
        best_c, best_val = _shrink_certificate(sites, eta, best_c, C_floor)
    return EtaCertificate(eta=eta, basis_id=basis.name, coeffs=best_c, min_margin=best_val,
                          upper_bound=ub, n_sites=len(sites), feasible=feasible,
                          status=status, iterations=iterations)


def _shrink_certificate(sites, eta, coeffs, C_floor, steps=40):
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
    for _ in range(steps):
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
    records: list
    certificates: dict
    warnings: list

    def summary(self):
        if self.eta_hi >= 1.0:
            return f"DF >= {self.eta_lo:.2f} (grid cap)"
        return f"DF in [{self.eta_lo:.2f}, {self.eta_hi:.2f}]"


def estimate_index(domain, basis, sites, eta_cap=0.99, tol_eta=0.01, C_floor=1e-4,
                   box_radius=100.0):
    """Bisection over eta with per-eta feasibility certificates.

    ``sites`` come from :func:`collect_sites`.  Feasibility at each eta is
    decided by :func:`feasibility_search`, seeding each stage with the
    previous certificate's coefficients.  A stage that ends neither feasible
    nor certified infeasible (iteration cap, LP failure) is recorded with a
    warning and ends the bisection without moving the bracket.
    """
    records, certificates, warnings = [], {}, []

    def run(eta, c_seed):
        cert = feasibility_search(domain, eta, basis, sites, C_floor=C_floor,
                                  c0=c_seed, box_radius=box_radius)
        records.append({"eta": float(eta), "feasible": cert.feasible,
                        "min_margin": None if cert.min_margin == NO_CONSTRAINT else float(cert.min_margin),
                        "status": cert.status})
        certificates[float(eta)] = cert
        if not cert.decided:
            warnings.append(f"eta = {eta} undecided ({cert.status}); it moves neither end "
                            "of the bracket")
        return cert

    if len(sites) == 0:
        cert = run(eta_cap, None)
        return DFEstimate(eta_lo=eta_cap, eta_hi=1.0, records=records,
                          certificates=certificates, warnings=warnings)

    cert_cap = run(eta_cap, None)
    if cert_cap.feasible:
        return DFEstimate(eta_lo=eta_cap, eta_hi=1.0, records=records,
                          certificates=certificates, warnings=warnings)
    lo, hi = 0.0, eta_cap
    cert_lo = run(0.0, None)
    c_seed = cert_lo.coeffs if cert_lo.feasible else None
    if cert_lo.status == "infeasible_certified":
        warnings.append("eta = 0 infeasible for this basis and sample set")
    while hi - lo > tol_eta:
        mid = 0.5 * (lo + hi)
        cert = run(mid, c_seed)
        if cert.feasible:
            lo, c_seed = mid, cert.coeffs
        elif cert.decided:
            hi = mid
        else:
            break       # without a certificate no later midpoint is sound

    feas_by_eta = sorted((r["eta"], r["feasible"]) for r in records)
    for (e1, f1), (e2, f2) in zip(feas_by_eta, feas_by_eta[1:]):
        if (not f1) and f2:
            warnings.append(f"non-monotone feasibility between eta = {e1} and {e2} (sampling noise)")
    return DFEstimate(eta_lo=lo, eta_hi=hi, records=records, certificates=certificates,
                      warnings=warnings)


# ----------------------------------------------------------------------
# interior verification
# ----------------------------------------------------------------------

def interior_check(domain, h_field, eta, C=0.0, depths=None, points=None, seed=0, n_points=12):
    """Smallest eigenvalue of the rescaled complex Hessian of -(-rho)^eta.

    With rho = r e^{-h}, evaluates eta^{-1} (-rho)^{-eta} ddbar(-(-rho)^eta)
    minus C times the metric through the expanded identity

        (-r)^{-1} ddbar r + (1-eta)(-r)^{-2} dr (x) dbar r
        - eta (-r)^{-1} (dh (x) dbar r + dr (x) dbar h)
        - eta dh (x) dbar h + ddbar h,

    which stays numerically stable arbitrarily close to the boundary; for
    eta = 0 the logarithmic variant is used.  Samples lie on inward normals
    of boundary points at the requested depths.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if depths is None:
        depths = np.geomspace(1e-4, 1e-2, 7)
    if points is None:
        points = sample_boundary(domain, n_points, seed)
    n = domain.n
    rows = []
    for p in points:
        for depth in depths:
            z = point_at_depth(domain, p, depth)
            fr = frame_at(domain, z, r_order=2)
            rv = float(np.real(fr.table(2).value))
            if rv >= 0.0:
                raise ValueError(f"interior sample has rho >= 0 at {z} (r = {rv})")
            hr = fr.hr
            u = fr.u.reshape(-1, 1)
            if h_field is not None:
                htab = wirtinger_table(h_field.jet(z, 2), n)
                w = htab.w1[:n].reshape(-1, 1)
                hh = htab.mixed_hessian
            else:
                w = np.zeros((n, 1), dtype=complex)
                hh = np.zeros((n, n), dtype=complex)
            if eta > 0.0:
                mat = (hr / (-rv)
                       + (1.0 - eta) / rv**2 * (u @ u.conj().T)
                       - eta / (-rv) * (w @ u.conj().T + u @ w.conj().T)
                       - eta * (w @ w.conj().T)
                       + hh)
            else:
                mat = hr / (-rv) + (u @ u.conj().T) / rv**2 + hh
            mat = mat - C * fr.G
            mat = 0.5 * (mat + mat.conj().T)
            # eigvalsh can return finite numbers for a matrix holding a NaN
            eig = float(np.linalg.eigvalsh(mat)[0]) if np.isfinite(mat).all() else math.nan
            rows.append({"z": fr.z, "depth": float(depth), "min_eig": eig})
    # np.min keeps a NaN sample, which ``min`` would drop
    min_eig = float(np.min([r["min_eig"] for r in rows], initial=math.inf))
    return {"eta": float(eta), "C": float(C), "min_eig": min_eig, "rows": rows,
            "positive": bool(min_eig > 0.0)}
