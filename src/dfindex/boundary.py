"""Boundary machinery: frames, Levi forms, sampling, and normal transport.

A :class:`DomainSpec` couples a defining function (order-3 jets), a metric,
and a chart box.  :class:`NormalFrame` is the per-point bundle of the dual
frame ``L_r`` / ``X_r`` / unit normals together with lazily built derivative
tables, and is shared by the form and margin evaluators so each point is
differentiated once.  Its order-2 core (``G``, ``u``, ``L``, ``X``, the
normals and norms, ``hr`` and the pairings built on them) is also computed
for a batch of points (B, n) at once, stacked along a leading batch axis;
the order-3 data (connection, ``h3t``, ``L_jets``) stays per point.

Everything here is pure given ``(domain, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp

from . import jets
from .fields import (
    ChartDomainError,
    ScalarField,
    complex_point,
    dz_jet,
    real_coords,
    seed_coordinate_jets,
    wirtinger_table,
)
from .geometry import (
    CTVector,
    MetricField,
    chern_frame,
    h3_tensor,
    hess_tensor,
    inner,
    jet_matrix_solve,
    norm2,
)

__all__ = [
    "TOL_BND",
    "TOL_GRAD",
    "DomainSpec",
    "BoundaryPoint",
    "ProjectionError",
    "NormalFrame",
    "LeviData",
    "CollarPath",
    "project_to_boundary",
    "sample_boundary",
    "normal_frame",
    "frame_at",
    "levi_data",
    "second_fundamental_form",
    "transport_along_normal",
    "collar_levi_compare",
    "find_collar_depth",
    "point_at_depth",
    "make_grad_norm_field",
    "admissibility_diagnostic",
]

TOL_BND = 1e-10
TOL_GRAD = 1e-6


class ProjectionError(RuntimeError):
    """Newton projection onto the boundary failed."""


@dataclass
class DomainSpec:
    """Domain in a Hermitian chart: defining function, metric, chart box."""

    name: str
    n: int
    r: ScalarField
    metric: MetricField
    box: np.ndarray
    interior_point: np.ndarray
    grad_norm_field: ScalarField | None = None
    min_abs_coord: dict = dc_field(default_factory=dict)
    special_sampler: object = None
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        self.interior_point = np.asarray(self.interior_point, dtype=complex).ravel()
        for j, radius in self.min_abs_coord.items():
            if radius <= 0:
                raise ValueError(f"min_abs_coord[{j}] must be positive (fiber z_{j}=0 removed)")
        witness = self.r.jet(self.interior_point, 0).value
        if not np.real(witness) < 0:
            raise ValueError(f"interior witness {self.interior_point} has r = {witness} >= 0")
        if self.grad_norm_field is None:
            self.grad_norm_field = make_grad_norm_field(self)

    def in_chart(self, z):
        x = real_coords(z)
        if np.any(x < self.box[:, 0]) or np.any(x > self.box[:, 1]):
            return False
        z = np.asarray(z, dtype=complex).ravel()
        for j, radius in self.min_abs_coord.items():
            if abs(z[j]) < radius:
                return False
        return True

    def check_chart(self, z):
        if not self.in_chart(z):
            raise ChartDomainError(f"point {np.asarray(z, dtype=complex)} outside chart of {self.name!r}")


@dataclass(frozen=True)
class BoundaryPoint:
    z: np.ndarray
    residual: float


def _point_of(p):
    if isinstance(p, BoundaryPoint):
        return p.z
    z = np.asarray(p, dtype=complex)
    return z if z.ndim == 2 else z.ravel()


def _col(s):
    """A per-point scalar (or batch of them) as a column that scales vectors."""
    return np.asarray(s)[..., None]


def _dot(a, b):
    """sum_k a_k b_k per point (stacked ``@``); a complex for one point."""
    out = (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    return complex(out) if out.ndim == 0 else out


def _pair(a, mat, b):
    """a^T mat b per point (stacked ``@``); a complex for one point."""
    out = (a[..., None, :] @ mat @ b[..., :, None])[..., 0, 0]
    return complex(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# projection and sampling
# ----------------------------------------------------------------------

def _real_gradient(domain, z):
    jet = domain.r.jet(z, 1)
    return float(np.real(jet.value)), np.real(jet.grad)


def project_to_boundary(domain, z0, tol_bnd=TOL_BND, tol_grad=TOL_GRAD, max_iter=50):
    """Newton iteration along the gradient of r onto the zero level set."""
    x = real_coords(z0)
    domain.check_chart(complex_point(x))
    for _ in range(max_iter):
        z = complex_point(x)
        rv, grad = _real_gradient(domain, z)
        gnorm2 = float(grad @ grad)
        if gnorm2 < tol_grad**2:
            raise ProjectionError(f"vanishing gradient of r at {z} (|grad| = {np.sqrt(gnorm2):.2e})")
        if abs(rv) <= tol_bnd:
            return BoundaryPoint(z=z, residual=abs(rv))
        x = x - rv * grad / gnorm2
        if not domain.in_chart(complex_point(x)):
            raise ProjectionError(f"projection from {z0} left the chart box")
    raise ProjectionError(f"projection from {z0} did not converge in {max_iter} iterations")


def sample_boundary(domain, count, seed, tol_bnd=TOL_BND, max_trials_factor=100):
    """Rejection sampling in the chart box followed by Newton projection."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    points, seen = [], set()
    trials = 0
    while len(points) < count:
        if trials >= max_trials_factor * count:
            raise ProjectionError(
                f"no boundary hits for {domain.name!r} after {trials} trials "
                f"({len(points)}/{count} found)"
            )
        trials += 1
        x = lo + (hi - lo) * rng.random(lo.shape)
        z0 = complex_point(x)
        if not domain.in_chart(z0):
            continue
        try:
            bp = project_to_boundary(domain, z0, tol_bnd=tol_bnd)
        except (ProjectionError, ChartDomainError, ValueError, ZeroDivisionError):
            continue
        key = tuple(np.round(real_coords(bp.z), 9))
        if key in seen:
            continue
        seen.add(key)
        points.append(bp)
    return points


# ----------------------------------------------------------------------
# normal frames
# ----------------------------------------------------------------------

class NormalFrame:
    """Dual frame of an admissible defining function at a chart point.

    Exposes ``L`` (the (1,0) field value with d r(L) = 1), ``X`` (its real
    part), unit normals ``nu_C`` / ``nu_R``, and the gradient norms.  Jets of
    r, the connection data, and coefficient jets of ``L`` are cached and
    built on demand.  For a batch of points ``z`` (B, n) the order-2 data
    carry a leading batch axis (``u`` (B, n), ``G`` and ``hr`` (B, n, n),
    the norms (B,)).
    """

    def __init__(self, domain, z, r_order=3):
        self.domain = domain
        self.z = _point_of(z)
        self.n = domain.n
        self._tables = {}
        self._chern = {}
        self._L_jets = None
        self._hess2n = None
        self._h3t = None

        table = self.table(min(r_order, 2))
        self.G = domain.metric.matrix(self.z)
        self.u = np.moveaxis(table.holo_grad, 0, -1).copy()
        x = np.linalg.solve(self.G, self.u[..., None])[..., 0]
        s = np.real(_dot(self.u.conj(), x))
        low = s <= TOL_GRAD**2
        if np.any(low):
            at, val = (self.z, s) if self.z.ndim == 1 else (self.z[low][0], s[low][0])
            raise ProjectionError(f"|d r| below tolerance at {at} (|dbar r|^2 = {val:.2e})")
        self.dbar_norm_sq = s
        self.dbar_norm = np.sqrt(s)            # |del r|
        self.grad_norm = np.sqrt(2.0 * s)      # |d r|
        lh = x.conj() / _col(s)
        self.L = CTVector.holo(lh)
        self.X = CTVector(0.5 * lh, 0.5 * lh.conj())
        self.nu_C = CTVector.holo(lh * _col(self.dbar_norm))
        self.nu_R = self.X * np.sqrt(2.0) * _col(self.dbar_norm)

    # -- cached derivative data ---------------------------------------
    def table(self, order):
        best = max([o for o in self._tables if o >= order], default=None)
        if best is None:
            jet = self.domain.r.jet(self.z, order)
            self._tables[order] = wirtinger_table(jet, self.n)
            return self._tables[order]
        return self._tables[best]

    def chern(self, order=2):
        best = max([o for o in self._chern if o >= order], default=None)
        if best is None:
            self._chern[order] = chern_frame(self.domain.metric, self.z, order=order)
            return self._chern[order]
        return self._chern[best]

    @property
    def hr(self):
        """Mixed complex Hessian of r: [d^2 r / dz_j dzbar_k] (batch axis first)."""
        return np.ascontiguousarray(np.moveaxis(self.table(2).mixed_hessian, (0, 1), (-2, -1)))

    def hess2n(self):
        if self._hess2n is None:
            self._hess2n = hess_tensor(self.table(2), self.chern(1))
        return self._hess2n

    def h3t(self):
        if self._h3t is None:
            self._h3t = h3_tensor(self.table(3), self.chern(2))
        return self._h3t

    def L_jets(self):
        """Order-2 coefficient jets of L = g^{-1} conj(del r) / |del r|^2."""
        if self._L_jets is None:
            rjet = self.domain.r.jet(self.z, 3)
            u_jets = [dz_jet(rjet, j, self.n) for j in range(self.n)]
            mjets = self.domain.metric.jets(self.z, 2)
            x = jet_matrix_solve(mjets, u_jets)
            s = sum((u_jets[i].conj() * x[i] for i in range(self.n)),
                    jets.Jet.constant(0.0, 2 * self.n, 2))
            self._L_jets = [x[i].conj() / s for i in range(self.n)]
        return self._L_jets

    def L_w1(self):
        """First Wirtinger derivatives of the coefficients of L: array (n, 2n)."""
        return np.array([wirtinger_table(j, self.n).w1 for j in self.L_jets()])

    # -- evaluators ----------------------------------------------------
    def dr(self, v):
        """d r(V) for a complexified vector (= del r(V_h) + delbar r(V_a))."""
        return _dot(self.u, v.h) + _dot(self.u.conj(), v.a)

    def mixed_pairing(self, a, b):
        """del-delbar r(A, B) for A of type (1,0) and B of type (0,1)."""
        return _pair(a.h, self.hr, b.a)

    def levi(self, zvec, wvec):
        """del-delbar r(Z, Wbar) for (1,0) vectors given by holomorphic coefficients."""
        return _pair(np.asarray(zvec), self.hr, np.conj(wvec))

    def hess_r(self, x, y):
        return complex(x.coeffs @ self.hess2n() @ y.coeffs)

    def h3_r(self, x1, x2, x3):
        t3 = self.h3t()
        return complex(np.einsum("abc,a,b,c->", t3, x1.coeffs, x2.coeffs, x3.coeffs))

    def nabla_L(self, direction):
        """Chern covariant derivative of the field L along a complexified direction."""
        w1 = self.L_w1()
        lh = self.L.h
        out = w1 @ direction.coeffs
        out = out + np.einsum("ijk,j,k->i", self.chern(1).gamma, direction.h, lh)
        return CTVector.holo(out)

    def norm2(self, v):
        return norm2(self.G, v)

    def inner(self, v, w):
        return inner(self.G, v, w)


def frame_at(domain, z, r_order=3):
    """Frame at an arbitrary chart point (no boundary-residual requirement)."""
    return NormalFrame(domain, _point_of(z), r_order=r_order)


def normal_frame(domain, p, tol_bnd=1e-8):
    """Frame at a boundary point; validates the defining-function residual."""
    z = _point_of(p)
    frame = NormalFrame(domain, z)
    rv = frame.table(2).value
    if abs(np.real(rv)) > tol_bnd:
        raise ValueError(f"point {z} is not on the boundary (r = {rv})")
    return frame


# ----------------------------------------------------------------------
# Levi data
# ----------------------------------------------------------------------

@dataclass
class LeviData:
    frame: NormalFrame
    basis: list            # metric-orthonormal (1,0) tangent vectors (CTVector)
    levi: np.ndarray       # Hermitian (n-1, n-1)
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    null_basis: list       # CTVector null directions in coordinate frame
    eps_null: float

    def check_null(self, zvec, tol=1e-6):
        """Raise ValueError unless Z lies in the Levi null space (relative ``tol``)."""
        fr = self.frame
        scale = float(np.max(np.abs(fr.hr))) + 1.0
        resid = max(abs(fr.levi(zvec.h, b.h)) for b in self.basis)
        if resid > tol * scale * max(np.sqrt(fr.norm2(zvec)), 1e-12):
            raise ValueError(f"Z is not in the Levi null space at {fr.z} (residual {resid:.2e})")


def levi_data(domain, p, eps_null=1e-7):
    """Orthonormal tangent basis, Levi matrix, eigenvalues, and null space."""
    frame = p if isinstance(p, NormalFrame) else normal_frame(domain, p)
    n, G = frame.n, frame.G
    raw = [np.eye(n, dtype=complex)[k] - frame.u[k] * frame.L.h for k in range(n)]
    basis = []
    for v in raw:
        w = v.copy()
        for b in basis:
            w = w - complex(w @ G @ b.conj()) * b
        nrm2 = float(np.real(w @ G @ w.conj()))
        if nrm2 > 1e-18:
            basis.append(w / np.sqrt(nrm2))
    if len(basis) != n - 1:
        raise ValueError(
            f"tangent Gram-Schmidt produced {len(basis)} vectors (metric degenerate at {frame.z})"
        )
    levi = np.array([[frame.levi(basis[j], basis[k]) for k in range(n - 1)] for j in range(n - 1)])
    levi = 0.5 * (levi + levi.conj().T)
    eigvals, eigvecs = np.linalg.eigh(levi)
    cutoff = eps_null * (float(eigvals[-1]) + 1.0)
    null_basis = []
    for idx in range(n - 1):
        if eigvals[idx] < cutoff:
            coeffs = sum(eigvecs[j, idx] * basis[j] for j in range(n - 1))
            null_basis.append(CTVector.holo(coeffs))
    return LeviData(
        frame=frame,
        basis=[CTVector.holo(b) for b in basis],
        levi=levi,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        null_basis=null_basis,
        eps_null=eps_null,
    )


def second_fundamental_form(domain, p, x, y, frame=None, tol=1e-8):
    """sff(X, Y) = -(Hess(X, Y) r) X_r, the normal-valued extrinsic curvature.

    Accepts real tangent vectors or their complexifications; inputs must
    annihilate d r at the point.
    """
    if frame is None:
        frame = p if isinstance(p, NormalFrame) else normal_frame(domain, p)
    scale = 1.0 + float(np.max(np.abs(x.coeffs))) + float(np.max(np.abs(y.coeffs)))
    for v, tag in ((x, "X"), (y, "Y")):
        if abs(frame.dr(v)) > tol * scale * frame.dbar_norm:
            raise ValueError(f"{tag} is not tangent at {frame.z}: dr({tag}) = {frame.dr(v)}")
    return (-frame.hess_r(x, y)) * frame.X


# ----------------------------------------------------------------------
# normal transport
# ----------------------------------------------------------------------

@dataclass
class CollarPath:
    base: NormalFrame
    times: np.ndarray
    points: np.ndarray        # (nt, n) complex chart points
    vectors: np.ndarray       # (nt, n) transported (1,0) coefficients
    r_residual: np.ndarray    # r(psi(t)) - t
    tangency: np.ndarray      # |del r(Z(t))|
    norm_drift: np.ndarray    # | |Z(t)| - |Z(0)| |


def transport_along_normal(domain, p, z0_vec, delta, steps=24, rtol=1e-11, atol=1e-12):
    """Flow of X_r from a boundary point with the tangential transport of Z.

    Z solves nabla_{X_r} Z = -(Hess(X_r, Z) r) L_r along the inward flow,
    which preserves del r(Z) = 0 and |Z|.
    """
    base = p if isinstance(p, NormalFrame) else normal_frame(domain, p)
    n = domain.n
    z0 = np.asarray(z0_vec.h if isinstance(z0_vec, CTVector) else z0_vec, dtype=complex)
    if abs(complex(base.u @ z0)) > 1e-8 * (1.0 + np.max(np.abs(z0))) * base.dbar_norm:
        raise ValueError("Z0 must be tangent: del r(Z0) != 0 at the base point")

    def rhs(t, y):
        z = complex_point(y[: 2 * n])
        if not domain.in_chart(z):
            raise ChartDomainError(f"flow exits chart box at t = {t}")
        zh = y[2 * n : 3 * n] + 1j * y[3 * n :]
        fr = NormalFrame(domain, z, r_order=2)
        lh = fr.L.h
        zvec = CTVector.holo(zh)
        hxz = fr.hess_r(fr.X, zvec)
        dz = -hxz * lh - np.einsum("ijk,j,k->i", fr.chern(1).gamma, 0.5 * lh, zh)
        return np.concatenate([0.5 * lh.real, 0.5 * lh.imag, dz.real, dz.imag])

    y0 = np.concatenate([real_coords(base.z), z0.real, z0.imag])
    t_eval = np.linspace(0.0, -delta, steps + 1)
    try:
        sol = solve_ivp(rhs, (0.0, -delta), y0, method="RK45", rtol=rtol, atol=atol, t_eval=t_eval)
    except ChartDomainError:
        raise
    if not sol.success:
        raise ProjectionError(f"normal transport failed: {sol.message}")

    points = np.array([complex_point(sol.y[: 2 * n, i]) for i in range(sol.y.shape[1])])
    vectors = (sol.y[2 * n : 3 * n, :] + 1j * sol.y[3 * n :, :]).T
    r_res, tang, drift = [], [], []
    base_norm = np.sqrt(base.norm2(CTVector.holo(z0)))
    for t, zp, zv in zip(sol.t, points, vectors):
        fr = NormalFrame(domain, zp, r_order=2)
        r_res.append(float(np.real(fr.table(2).value)) - t)
        tang.append(abs(complex(fr.u @ zv)))
        drift.append(abs(np.sqrt(fr.norm2(CTVector.holo(zv))) - base_norm))
    return CollarPath(
        base=base,
        times=sol.t,
        points=points,
        vectors=vectors,
        r_residual=np.array(r_res),
        tangency=np.array(tang),
        norm_drift=np.array(drift),
    )


def collar_levi_compare(domain, p, z0_vec, delta, eps, steps=10):
    """Two-sided defect of the collar Levi-form bounds along one transport path.

    At depth t < 0 the Levi form at z is bounded below and above by
    ``(1 -+ eps) * Levi|_base + r * (i beta(Z, Zbar) - |alpha(Z)|^2) -+ eps |Z|^2 (-r)``;
    both defects (bound satisfied => defect >= 0) are reported per sample.
    """
    from .forms import alpha, beta_mixed

    path = transport_along_normal(domain, p, z0_vec, delta, steps=steps)
    base = path.base
    z0 = CTVector.holo(path.vectors[0])
    levi_base = float(np.real(base.levi(z0.h, z0.h)))
    rows = []
    for t, zp, zv in zip(path.times, path.points, path.vectors):
        if t == 0.0:
            continue
        fr = frame_at(domain, zp)
        zvec = CTVector.holo(zv)
        levi_here = float(np.real(fr.levi(zv, zv)))
        a = alpha(domain, zp, zvec, frame=fr)
        b = beta_mixed(domain, zp, zvec, zvec, frame=fr)
        correction = t * float(np.real(1j * b) - abs(a) ** 2)
        znorm2 = fr.norm2(zvec)
        slack = eps * znorm2 * (-t)
        lower_defect = levi_here - ((1 - eps) * levi_base + correction - slack)
        upper_defect = ((1 + eps) * levi_base + correction + slack) - levi_here
        rows.append({
            "t": float(t),
            "levi": levi_here,
            "levi_base": levi_base,
            "lower_defect": float(lower_defect),
            "upper_defect": float(upper_defect),
        })
    min_lower = min(r["lower_defect"] for r in rows)
    min_upper = min(r["upper_defect"] for r in rows)
    return {
        "delta": float(delta),
        "eps": float(eps),
        "rows": rows,
        "min_lower_defect": min_lower,
        "min_upper_defect": min_upper,
        "holds": bool(min_lower >= 0.0 and min_upper >= 0.0),
    }


def find_collar_depth(domain, sites, eps, delta0=0.05, min_delta=1e-4, steps=10):
    """Halve the collar depth until both Levi bounds hold at every site.

    ``sites`` is a list of (boundary point, (1,0) tangent CTVector).  Returns
    the empirically found depth delta(eps) and the per-site reports.
    """
    delta = delta0
    while delta >= min_delta:
        reports = []
        ok = True
        for p, zvec in sites:
            rep = collar_levi_compare(domain, p, zvec, delta, eps, steps=steps)
            reports.append(rep)
            ok = ok and rep["holds"]
        if ok:
            return delta, reports
        delta *= 0.5
    raise ProjectionError(f"no collar depth >= {min_delta} satisfies the bounds for eps = {eps}")


def point_at_depth(domain, p, depth, tol=1e-12, max_iter=60):
    """Interior point with r = -depth reached by Newton from a boundary point."""
    x = real_coords(_point_of(p))
    target = -float(depth)
    for _ in range(max_iter):
        z = complex_point(x)
        rv, grad = _real_gradient(domain, z)
        if abs(rv - target) <= tol * (1.0 + abs(target)):
            return z
        gnorm2 = float(grad @ grad)
        if gnorm2 < TOL_GRAD**2:
            raise ProjectionError(f"vanishing gradient while descending to depth {depth}")
        x = x - (rv - target) * grad / gnorm2
    raise ProjectionError(f"depth Newton did not converge to r = {target}")


# ----------------------------------------------------------------------
# gradient-norm field and admissibility diagnostic
# ----------------------------------------------------------------------

def make_grad_norm_field(domain):
    """|d r| as a ScalarField, assembled in jet arithmetic (orders 0..2).

    Computes |del r|^2 = u^H g^{-1} u with u = del r inside the jet ring and
    returns sqrt(2 |del r|^2); consumes one extra derivative of r, so the
    field supports jets through order 2 only.
    """
    n = domain.n

    def fn(zs):
        order = zs[0].order
        z = np.array([w.value for w in zs], dtype=complex)
        seeds = seed_coordinate_jets(z, order + 1)
        rjet = domain.r.fn(seeds)
        u = [dz_jet(rjet, j, n) for j in range(n)]
        mjets = domain.metric.jets(z, order)
        x = jet_matrix_solve(mjets, u)
        s = sum((u[i].conj() * x[i] for i in range(n)), jets.Jet.constant(0.0, 2 * n, order))
        s = s.real()
        return jets.sqrt(s * 2.0)

    return ScalarField(n, fn, name=f"|dr| ({domain.name})", guard=domain.r.guard, max_order=2)


def admissibility_diagnostic(domain, p, step=1e-2):
    """Roughness probe for |d r|: spread of finite-difference third derivatives.

    Admissibility (|d r| twice continuously differentiable) cannot be decided
    from point samples; this reports the maximum third difference of |d r|
    along the real coordinate directions at two nearby scales and their
    relative spread, which blows up when |d r| is not C^2.
    """
    z = _point_of(p)
    gn = domain.grad_norm_field
    x0 = real_coords(z)
    estimates = {}
    for h in (step, step / 2):
        vals = []
        for i in range(2 * domain.n):
            e = np.zeros_like(x0)
            e[i] = 1.0
            f = lambda s: gn.jet(complex_point(x0 + s * e), 0).value
            d3 = (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
            vals.append(d3)
        estimates[h] = np.array(vals)
    a, b = estimates[step], estimates[step / 2]
    scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)))
    spread = float(np.max(np.abs(a - b)) / scale)
    # third differences of a C^2-but-not-C^3 gradient norm diverge like 1/h,
    # which saturates the relative spread near 1/2; smooth inputs sit orders
    # of magnitude lower
    return {
        "max_third_difference": float(max(np.max(np.abs(a)), np.max(np.abs(b)))),
        "relative_spread": spread,
        "rough": bool(spread > 0.2),
    }
