"""Boundary machinery: frames, Levi forms, sampling, and normal transport.

A :class:`DomainSpec` couples a defining function (order-3 jets), a metric,
and a chart box.  :class:`NormalFrame` is the bundle of the dual frame
``L_r`` / ``X_r`` / unit normals together with one jet of r and the
metric's jets, from which it derives the rest on first use;
:func:`normal_frame` also checks that its points lie on the boundary.
Every frame evaluator (of the forms, the margins and the boundary geometry)
takes its frame first, over one point (n,) or a batch of points (B, n): one
point gives a Python scalar, a batch a (B,) array whose rows equal the
one-point results bit for bit.  So a caller builds one frame per point set
and each point is differentiated once.  The Newton iteration onto a level
set of r is batched too: :func:`sample_boundary` projects a block of
candidates per batch, :func:`project_to_boundary` and :func:`point_at_depth`
are its batch-of-one callers, and a row that fails is rejected alone.

:func:`transport_along_normal` (and the collar checks built on it)
integrates an ODE with SciPy's RK45, which it imports on its first call:
importing this module loads NumPy and nothing heavier.

Everything here is pure given ``(domain, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import jets
from .fields import (
    ChartDomainError,
    ScalarField,
    _points,
    complex_point,
    dz_jet,
    real_coords,
    wirtinger_table,
)
from .geometry import (
    CTVector,
    MetricError,
    MetricField,
    _abs,
    _abs_sq,
    _dot,
    _hermitian_matrix,
    _pair,
    _w1_rows,
    chern_frame,
    h3_op,
    h3_tensor,
    hess_op,
    hess_tensor,
    inner,
    norm2,
)
from .jets import JetOrderError, _vmul

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
    "levi_data",
    "second_fundamental_form",
    "transport_along_normal",
    "collar_levi_compare",
    "find_collar_depth",
    "point_at_depth",
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
    min_abs_coord: dict = dc_field(default_factory=dict)
    special_sampler: object = None   # (count, seed, spread) -> points of the Levi-degenerate set
    h_basis: object = None           # (degree, spread) -> the domain's own HBasis over that sample
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
        g = self.metric.matrix(self.interior_point)   # raises unless Hermitian
        try:
            # a Cholesky factor exists iff g is positive definite; the estimator already runs
            # Cholesky, while a first eigvalsh call pages in about 0.4 MB more of LAPACK
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise MetricError(f"metric {self.metric.name!r} is not positive definite at the interior witness "
                              f"{self.interior_point}: least eigenvalue {np.linalg.eigvalsh(g)[0]:.3e}") from None

    def in_chart(self, z):
        """Whether a point (n,) lies in the chart: a bool, or a (B,) bool array for a batch (B, n).

        Every test is written so that a NaN coordinate fails it.
        """
        z = _point_of(z)
        x = real_coords(z)
        ok = np.all((x >= self.box[:, 0]) & (x <= self.box[:, 1]), axis=-1)
        for j, radius in self.min_abs_coord.items():
            ok &= np.abs(z[..., j]) >= radius
        return bool(ok) if z.ndim == 1 else ok

    def check_chart(self, z):
        if not self.in_chart(z):
            raise ChartDomainError(f"point {np.asarray(z, dtype=complex)} outside chart of {self.name!r}")


@dataclass(frozen=True)
class BoundaryPoint:
    z: np.ndarray
    residual: float


def _point_of(p):
    """One chart point (n,), or a batch (B, n) from an array or a list of points."""
    if isinstance(p, BoundaryPoint):
        return p.z
    if isinstance(p, list):
        p = [q.z if isinstance(q, BoundaryPoint) else q for q in p]
    return _points(p)


def _col(s):
    """A per-point scalar (or batch of them) as a column that scales vectors."""
    return np.asarray(s)[..., None]


# ----------------------------------------------------------------------
# projection and sampling
# ----------------------------------------------------------------------

_NEWTON_ITER = 50          # Newton steps allowed for a projection onto r = 0
_DEPTH_TOL, _DEPTH_ITER = 1e-12, 60   # tolerance and steps for Newton onto r = -depth
_FRAME_TOL = 1e-8          # |r| that :func:`normal_frame` accepts as on the boundary
_NULL_TOL = 1e-6           # relative Levi residual that :meth:`LeviData.check_null` accepts
_TANGENT_TOL = 1e-8        # relative |d r(X)| that :func:`second_fundamental_form` takes as tangent
_TRANSPORT_RTOL, _TRANSPORT_ATOL = 1e-11, 1e-12   # ODE tolerances of the normal transport
_COLLAPSE_FRACTION = 1e-6   # normal transport refused where |d r|^2 falls below this share of its base
_MIN_COLLAR_DEPTH = 1e-4   # where :func:`find_collar_depth` stops halving
_ADMISSIBILITY_STEP = 1e-2  # the larger finite-difference step of the admissibility probe
_ROW_ERRORS = (ValueError, ZeroDivisionError)   # what a jet of r raises at a bad point


def _level_data(domain, z):
    """Value and real gradient (2n, K) of r at each row of ``z`` (K, n), and the rows' errors.

    The errors are a dict from row to exception, empty when no row failed.
    One batch jet serves every row.  A batch jet raises for all rows when
    one is bad, so then each row is evaluated alone.
    """
    try:
        jet = domain.r.jet(z, 1)
        return np.real(jet.value), np.real(np.asarray(jet.grad, dtype=complex)), {}
    except _ROW_ERRORS:
        pass
    value = np.full(len(z), np.nan)
    grad = np.zeros((2 * domain.n, len(z)), dtype=complex)
    errors = {}
    for k, zk in enumerate(z):
        try:
            jet = domain.r.jet(zk, 1)
        except _ROW_ERRORS as err:
            errors[k] = err
            continue
        value[k], grad[:, k] = np.real(jet.value), jet.grad
    return value, np.real(grad), errors


def _newton_to_level(domain, z0, target, tol, max_iter):
    """Newton steps along the gradient of r from each row of ``z0`` (K, n) to r = ``target``.

    ``target`` is one level or one per row.  Each row stops once
    |r - target| <= tol (1 + |target|), or fails where the gradient
    vanishes, a step leaves the chart, its jet of r raises, or ``max_iter``
    steps do not converge.  Returns the points (K, n) and residuals (K,),
    NaN where a row failed, and per row None or the exception that stopped
    it.  Each row equals its iteration alone bit for bit.  |grad|^2 is one
    stacked matmul of each row's (1, 2n) by (2n, 1) on the strided real
    view, which runs the dot product a single point's ``g @ g`` runs; a
    contiguous copy, ``einsum`` or ``(g * g).sum(0)`` sum in another order
    and can differ in the last bit.
    """
    x = real_coords(z0)
    target = np.broadcast_to(np.asarray(target, dtype=float), len(x))
    z_out = np.full(x.shape[:1] + (domain.n,), np.nan, dtype=complex)
    residual = np.full(len(x), np.nan)
    errors = [None] * len(x)
    active = np.arange(len(x))
    for _ in range(max_iter):
        if not active.size:
            break
        z = complex_point(x[active])
        value, grad, row_errors = _level_data(domain, z)
        rv = value - target[active]
        gnorm2 = (grad.T[:, None, :] @ grad.T[:, :, None])[:, 0, 0]
        for k in np.flatnonzero(gnorm2 < TOL_GRAD**2):
            row_errors.setdefault(k, ProjectionError(
                f"vanishing gradient of r at {z[k]} (|grad| = {np.sqrt(gnorm2[k]):.2e})"))
        failed = np.zeros(len(z), dtype=bool)
        failed[list(row_errors)] = True
        for k, err in row_errors.items():
            errors[active[k]] = err
        done = ~failed & (np.abs(rv) <= tol * (1.0 + np.abs(target[active])))
        z_out[active[done]], residual[active[done]] = z[done], np.abs(rv[done])
        go = ~(failed | done)
        step = x[active[go]] - rv[go, None] * grad[:, go].T / gnorm2[go, None]
        inside = domain.in_chart(complex_point(step))
        x[active[go]] = step
        for i in active[go][~inside]:
            errors[i] = ProjectionError(f"Newton from {z0[i]} to r = {target[i]} left the chart box")
        active = active[go][inside]
    for i in active:
        errors[i] = ProjectionError(
            f"Newton from {z0[i]} did not converge to r = {target[i]} in {max_iter} iterations")
    return z_out, residual, errors


def project_to_boundary(domain, z0):
    """Newton iteration along the gradient of r onto the zero level set."""
    domain.check_chart(z0)
    z, residual, errors = _newton_to_level(domain, _point_of(z0)[None], 0.0, TOL_BND, _NEWTON_ITER)
    if errors[0] is not None:
        raise errors[0]
    return BoundaryPoint(z=z[0], residual=float(residual[0]))


def sample_boundary(domain, count, seed, max_trials_factor=100):
    """Rejection sampling in the chart box followed by Newton projection.

    Candidates are drawn uniformly in the box in blocks; a block of k draws
    is one ``rng.random((k, 2n))``, the stream of k one-point draws.  The
    first block has ``count`` draws, each later one as many as the hit rate
    so far predicts.  A block is screened with :meth:`DomainSpec.in_chart`
    and projected by one batched Newton iteration, which rejects a failing
    candidate alone.  The results are taken in draw order, skipping points
    already found (coordinates rounded to 9 digits), until ``count`` points
    are found; :class:`ProjectionError` is raised if the first
    ``max_trials_factor * count`` draws give fewer.  The points are those
    of :func:`project_to_boundary` on each candidate in turn, bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    cap = max_trials_factor * count
    points, seen = [], set()
    trials = 0
    while len(points) < count:
        if trials >= cap:
            raise ProjectionError(
                f"no boundary hits for {domain.name!r} after {trials} trials "
                f"({len(points)}/{count} found)"
            )
        need = count - len(points)
        block = min(cap - trials, -(-need * max(trials, 1) // max(len(points), 1)))
        trials += block
        z0 = complex_point(lo + (hi - lo) * rng.random((block, lo.size)))
        z0 = z0[domain.in_chart(z0)]
        z, residual, errors = _newton_to_level(domain, z0, 0.0, TOL_BND, _NEWTON_ITER)
        keys = np.round(real_coords(z), 9).tolist()
        for zk, res, err, key in zip(z, residual.tolist(), errors, keys):
            key = tuple(key)
            if err is not None or key in seen:
                continue
            seen.add(key)
            points.append(BoundaryPoint(z=zk, residual=res))
            if len(points) == count:
                break
    return points


# ----------------------------------------------------------------------
# normal frames
# ----------------------------------------------------------------------

class NormalFrame:
    """Dual frame of an admissible defining function at a chart point.

    Exposes ``L`` (the (1,0) field value with d r(L) = 1), ``X`` (its real
    part), unit normals ``nu_C`` / ``nu_R``, and the gradient norms.  Built,
    it holds the jet ``r_jet`` of r through ``r_order`` (and its ``table``)
    and the metric's entry jets ``metric_jets`` through ``r_order - 1``; the
    rest (``chern``, ``hr``, ``hess2n``, ``h3t``, ``L_jets``, ``L_w1``,
    ``grad_norm_jet``) is derived from them once, on first use, and what
    needs derivatives past ``r_order`` raises ``JetOrderError``.  Over
    a batch of points ``z`` (B, n) every frame quantity carries a leading
    batch axis (``u`` (B, n), ``G`` and ``hr`` (B, n, n), ``h3t``
    (B, 2n, 2n, 2n), the norms (B,)).
    """

    def __init__(self, domain, z, r_order=3):
        self.domain = domain
        self.z = _point_of(z)
        self.n = domain.n
        self.r_jet = domain.r.jet(self.z, r_order)
        self.table = wirtinger_table(self.r_jet, self.n)
        self.metric_jets = domain.metric.jets(self.z, r_order - 1)
        self.G = _hermitian_matrix(domain.metric, self.metric_jets, self.z)
        self.u = np.moveaxis(self.table.holo_grad, 0, -1).copy()
        x = np.linalg.solve(self.G, self.u[..., None])[..., 0]
        s = np.real(_dot(self.u.conj(), x))
        low = s <= TOL_GRAD**2
        if np.any(low):
            at, val = self.z[low][0], np.asarray(s)[low][0]
            raise ProjectionError(f"|d r| below tolerance at {at} (|dbar r|^2 = {val:.2e})")
        self.dbar_norm_sq = s
        self.dbar_norm = np.sqrt(s)            # |del r|
        self.grad_norm = np.sqrt(2.0 * s)      # |d r|
        lh = x.conj() / _col(s)
        self.L = CTVector.holo(lh)
        self.X = CTVector(0.5 * lh, 0.5 * lh.conj())
        self.nu_C = CTVector.holo(lh * _col(self.dbar_norm))
        self.nu_R = self.X * np.sqrt(2.0) * _col(self.dbar_norm)

    # -- derived data, computed on first use ---------------------------
    def _r_table(self, order, what):
        """The table of r, which must hold derivatives through ``order`` for ``what``."""
        if self.table.order < order:
            raise JetOrderError(f"{what} needs jets of r of order {order}, the frame has {self.table.order}")
        return self.table

    @cached_property
    def chern(self):
        """The Chern connection from the frame's metric jets: Gamma at ``r_order`` 2, also dGamma at 3."""
        return chern_frame(self.domain.metric, self.z, mjets=self.metric_jets)

    @cached_property
    def hr(self):
        """Mixed complex Hessian of r: [d^2 r / dz_j dzbar_k] (batch axis first)."""
        hess = self._r_table(2, "the Levi form").mixed_hessian
        return np.ascontiguousarray(np.moveaxis(hess, (0, 1), (-2, -1)))

    @cached_property
    def hess2n(self):
        return hess_tensor(self._r_table(2, "the Hessian"), self.chern)

    @cached_property
    def h3t(self):
        return h3_tensor(self._r_table(3, "the third-order Hessian"), self.chern, self.hess2n)

    @cached_property
    def _dual_jets(self):
        """Order-2 jets of x = g^{-1} del r (with the connection's g^{-1}) and |del r|^2 = conj(del r) . x."""
        self._r_table(3, "the jets of L")
        u_jets = [dz_jet(self.r_jet, j, self.n) for j in range(self.n)]
        inv, zero = self.chern.ginv_jets, jets.Jet.constant(0.0, 2 * self.n, 2)
        x = [sum((inv[i][j] * u_jets[j] for j in range(self.n)), zero) for i in range(self.n)]
        s = sum((u_jets[i].conj() * x[i] for i in range(self.n)), zero)
        return x, s

    @cached_property
    def L_jets(self):
        """Order-2 coefficient jets of L = g^{-1} conj(del r) / |del r|^2."""
        x, s = self._dual_jets
        return [x[i].conj() / s for i in range(self.n)]

    @cached_property
    def grad_norm_jet(self):
        """Order-2 jet of |d r| = sqrt(2 |del r|^2)."""
        return jets.sqrt(self._dual_jets[1].real() * 2.0)

    @cached_property
    def L_w1(self):
        """First Wirtinger derivatives of the coefficients of L: array (n, 2n) per point."""
        return _w1_rows(self.L_jets, self.n)

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
        return hess_op(self.hess2n, x, y)

    def h3_r(self, x1, x2, x3):
        return h3_op(self.h3t, x1, x2, x3)

    def nabla_L(self, direction):
        """Chern covariant derivative of the field L along a complexified direction."""
        out = (self.L_w1 @ direction.coeffs[..., None])[..., 0]
        out = out + np.einsum("...ijk,...j,...k->...i", self.chern.gamma, direction.h, self.L.h)
        return CTVector.holo(out)

    def norm2(self, v):
        return norm2(self.G, v)

    def inner(self, v, w):
        return inner(self.G, v, w)


def normal_frame(domain, p, r_order=3):
    """Frame at a boundary point (or a batch); validates the defining-function residual."""
    frame = NormalFrame(domain, p, r_order=r_order)
    rv = frame.r_jet.value
    off = np.abs(np.real(rv)) > _FRAME_TOL
    if np.any(off):
        at, val = frame.z[off][0], np.asarray(rv)[off][0]
        raise ValueError(f"point {at} is not on the boundary (r = {val})")
    return frame


# ----------------------------------------------------------------------
# Levi data
# ----------------------------------------------------------------------

@dataclass
class LeviData:
    """Levi data at one point, or at each point of a batch (leading batch axis)."""

    frame: NormalFrame
    basis: list              # n - 1 CTVectors, metric-orthonormal (1,0) tangent vectors
    levi: np.ndarray         # Hermitian (..., n-1, n-1): the Levi matrix over ``basis``
    eigenvalues: np.ndarray
    directions: np.ndarray   # (..., n-1, n): its eigenvectors over ``basis``, unnormalized
    null: np.ndarray         # (..., n-1) bool: eigenvalue below the null cutoff

    def pairs(self, mask):
        """Point indices (K,) and directions (a CTVector (K, n)) where ``mask`` (..., n-1) holds.

        The pairs run in row-major order; one point counts as a batch of one.
        """
        mask = np.atleast_2d(mask)
        at, idx = np.nonzero(mask)
        return at, CTVector.holo(self.directions.reshape(mask.shape + (-1,))[at, idx])

    def check_null(self, zvec):
        """Raise ValueError unless Z lies in the Levi null space (relative _NULL_TOL) at every point.

        Each point is measured on its own scale; a NaN residual fails.
        """
        fr = self.frame
        scale = np.max(np.abs(fr.hr), axis=(-2, -1)) + 1.0
        resid = np.max([np.abs(fr.levi(zvec.h, b.h)) for b in self.basis], axis=0)   # keeps NaN
        off = ~(resid <= _NULL_TOL * scale * np.maximum(np.sqrt(fr.norm2(zvec)), 1e-12))
        if np.any(off):
            raise ValueError(f"Z is not in the Levi null space at {fr.z[off][0]} "
                             f"(residual {np.asarray(resid)[off][0]:.2e})")


def levi_data(frame, eps_null=1e-7):
    """Orthonormal tangent basis, Levi matrix, eigenvalues, and null space.

    ``frame`` is at one point or at a batch of points (B, n).  Over a
    batch, Gram-Schmidt keeps the vectors found at each point in slots and
    skips a degenerate raw vector at that point only, so every point follows
    its own one-point sequence of operations.
    """
    n, G = frame.n, frame.G
    batch = frame.u.shape[:-1]
    raw = np.eye(n, dtype=complex) - frame.u[..., :, None] * frame.L.h[..., None, :]
    slots = np.zeros(batch + (n, n), dtype=complex)
    found = np.zeros(batch, dtype=int)
    for k in range(n):
        w = raw[..., k, :].copy()
        for j in range(k):
            b = np.ascontiguousarray(slots[..., j, :])
            proj = w - _col(_pair(w, G, b.conj())) * b
            w = np.where(_col(j < found), proj, w)
        nrm2 = np.real(_pair(w, G, w.conj()))
        keep = nrm2 > 1e-18
        unit = w / _col(np.sqrt(np.where(keep, nrm2, 1.0)))
        for j in range(n):
            slots[..., j, :] = np.where(_col(keep & (found == j)), unit, slots[..., j, :])
        found = found + keep
    bad = found != n - 1
    if np.any(bad):
        at, count = frame.z[bad][0], found[bad][0]
        raise ValueError(
            f"tangent Gram-Schmidt produced {count} vectors (metric degenerate at {at})"
        )
    basis = [np.ascontiguousarray(slots[..., j, :]) for j in range(n - 1)]
    levi = np.stack([np.stack([frame.levi(basis[j], basis[k]) for k in range(n - 1)], axis=-1)
                     for j in range(n - 1)], axis=-2)
    levi = 0.5 * (levi + np.swapaxes(levi.conj(), -1, -2))
    eigvals, eigvecs = np.linalg.eigh(levi)
    cutoff = eps_null * (eigvals[..., -1] + 1.0)
    directions = [sum(_col(eigvecs[..., j, idx]) * basis[j] for j in range(n - 1))
                  for idx in range(n - 1)]
    return LeviData(
        frame=frame,
        basis=[CTVector.holo(b) for b in basis],
        levi=levi,
        eigenvalues=eigvals,
        directions=np.stack(directions, axis=-2),
        null=eigvals < _col(cutoff),
    )


def second_fundamental_form(frame, x, y):
    """sff(X, Y) = -(Hess(X, Y) r) X_r, the normal-valued extrinsic curvature.

    Accepts real tangent vectors or their complexifications; inputs must
    annihilate d r at each point (to relative _TANGENT_TOL).
    """
    scale = 1.0 + np.max(np.abs(x.coeffs), axis=-1) + np.max(np.abs(y.coeffs), axis=-1)
    for v, tag in ((x, "X"), (y, "Y")):
        dr = np.asarray(frame.dr(v))
        off = ~(np.abs(dr) <= _TANGENT_TOL * scale * frame.dbar_norm)   # a NaN dr fails
        if np.any(off):
            raise ValueError(f"{tag} is not tangent at {frame.z[off][0]}: dr({tag}) = {dr[off][0]}")
    return frame.X * _col(-np.asarray(frame.hess_r(x, y)))


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


def transport_along_normal(base, z0_vec, delta, steps=24):
    """Flow of X_r from the point of the frame ``base``, with the tangential transport of Z.

    Z solves nabla_{X_r} Z = -(Hess(X_r, Z) r) L_r along the inward flow,
    which preserves del r(Z) = 0 and |Z|.  The flow reaches r = t at time
    t, and its speed 1/|d r| blows up where d r vanishes.  So the flow is
    refused with :class:`ProjectionError` where |d r|^2 falls below
    ``_COLLAPSE_FRACTION`` of its base value, a thousandth of |d r| and a
    thousandfold speed, as well as where it falls below ``TOL_GRAD**2``.
    The check reads the frame each right-hand side builds anyway and changes
    no step taken.  Nothing predicts the collapse: a path that ends at a
    critical point of r is integrated until |d r| has shrunk that far.
    """
    from scipy.integrate import solve_ivp    # most of a cold ``import dfindex``, so loaded here only

    domain, n = base.domain, base.n
    z0 = np.asarray(z0_vec.h if isinstance(z0_vec, CTVector) else z0_vec, dtype=complex)
    if abs(complex(base.u @ z0)) > 1e-8 * (1.0 + np.max(np.abs(z0))) * base.dbar_norm:
        raise ValueError("Z0 must be tangent: del r(Z0) != 0 at the base point")

    def rhs(t, y):
        z = complex_point(y[: 2 * n])
        if not domain.in_chart(z):
            raise ChartDomainError(f"flow exits chart box at t = {t}")
        zh = y[2 * n : 3 * n] + 1j * y[3 * n :]
        fr = NormalFrame(domain, z, r_order=2)
        if fr.dbar_norm_sq < _COLLAPSE_FRACTION * base.dbar_norm_sq:
            raise ProjectionError(
                f"normal transport refused at t = {t}: |d r|^2 = {fr.dbar_norm_sq:.2e} is below "
                f"the collapse tolerance, {_COLLAPSE_FRACTION:g} of its base value")
        lh = fr.L.h
        zvec = CTVector.holo(zh)
        hxz = fr.hess_r(fr.X, zvec)
        dz = -hxz * lh - np.einsum("ijk,j,k->i", fr.chern.gamma, 0.5 * lh, zh)
        return np.concatenate([0.5 * lh.real, 0.5 * lh.imag, dz.real, dz.imag])

    y0 = np.concatenate([real_coords(base.z), z0.real, z0.imag])
    t_eval = np.linspace(0.0, -delta, steps + 1)
    sol = solve_ivp(rhs, (0.0, -delta), y0, method="RK45", rtol=_TRANSPORT_RTOL, atol=_TRANSPORT_ATOL,
                    t_eval=t_eval)
    if not sol.success:
        raise ProjectionError(f"normal transport failed: {sol.message}")

    points = complex_point(sol.y[: 2 * n].T)
    vectors = (sol.y[2 * n : 3 * n, :] + 1j * sol.y[3 * n :, :]).T
    base_norm = np.sqrt(base.norm2(CTVector.holo(z0)))
    fr = NormalFrame(domain, points, r_order=2)
    return CollarPath(
        base=base,
        times=sol.t,
        points=points,
        vectors=vectors,
        r_residual=np.real(fr.r_jet.value) - sol.t,
        tangency=_abs(_dot(fr.u, vectors)),
        norm_drift=np.abs(np.sqrt(fr.norm2(CTVector.holo(vectors))) - base_norm),
    )


def collar_levi_compare(base, z0_vec, delta, eps, steps=10):
    """Two-sided defect of the collar Levi-form bounds along one transport path.

    At depth t < 0 the Levi form at z is bounded below and above by
    ``(1 -+ eps) * Levi|_base + r * (i beta(Z, Zbar) - |alpha(Z)|^2) -+ eps |Z|^2 (-r)``;
    both defects (bound satisfied => defect >= 0) are reported per sample.
    """
    from .forms import alpha, beta_mixed

    path = transport_along_normal(base, z0_vec, delta, steps=steps)
    z0 = CTVector.holo(path.vectors[0])
    levi_base = float(np.real(base.levi(z0.h, z0.h)))
    below = path.times != 0.0
    t, zv = path.times[below], path.vectors[below]
    fr = NormalFrame(base.domain, path.points[below])
    zvec = CTVector.holo(zv)
    levi_here = np.real(fr.levi(zv, zv))
    correction = t * (np.real(_vmul(1j, beta_mixed(fr, zvec, zvec))) - _abs_sq(alpha(fr, zvec)))
    slack = eps * fr.norm2(zvec) * (-t)
    lower_defect = levi_here - ((1 - eps) * levi_base + correction - slack)
    upper_defect = ((1 + eps) * levi_base + correction + slack) - levi_here
    columns = zip(*(v.tolist() for v in (t, levi_here, lower_defect, upper_defect)))
    rows = [{"t": tk, "levi": lk, "levi_base": levi_base, "lower_defect": lo, "upper_defect": up}
            for tk, lk, lo, up in columns]
    # np.min keeps a NaN defect, which ``min`` would drop after the first row
    min_lower, min_upper = float(np.min(lower_defect)), float(np.min(upper_defect))
    return {
        "delta": float(delta),
        "eps": float(eps),
        "rows": rows,
        "min_lower_defect": min_lower,
        "min_upper_defect": min_upper,
        "holds": bool(min_lower >= 0.0 and min_upper >= 0.0),
    }


def find_collar_depth(sites, eps, delta0=0.05, steps=10):
    """Halve the collar depth until both Levi bounds hold at every site.

    ``sites`` is a list of (boundary frame, (1,0) tangent CTVector).  Returns
    the empirically found depth delta(eps) and the per-site reports.
    """
    delta = delta0
    while delta >= _MIN_COLLAR_DEPTH:
        reports = [collar_levi_compare(base, zvec, delta, eps, steps=steps) for base, zvec in sites]
        if all(rep["holds"] for rep in reports):
            return delta, reports
        delta *= 0.5
    raise ProjectionError(f"no collar depth >= {_MIN_COLLAR_DEPTH} satisfies the bounds for eps = {eps}")


def point_at_depth(domain, p, depth):
    """Interior point with r = -depth reached by Newton from a boundary point."""
    z, _, errors = _newton_to_level(domain, _point_of(p)[None], -float(depth), _DEPTH_TOL, _DEPTH_ITER)
    if errors[0] is not None:
        raise errors[0]
    return z[0]


# ----------------------------------------------------------------------
# admissibility diagnostic
# ----------------------------------------------------------------------

def admissibility_diagnostic(domain, p):
    """Roughness probe for |d r|: spread of finite-difference third derivatives.

    Admissibility (|d r| twice continuously differentiable) cannot be decided
    from point samples; this reports the maximum third difference of |d r|
    along the real coordinate directions at two nearby scales and their
    relative spread, which blows up when |d r| is not C^2.
    """
    x0 = real_coords(_point_of(p))
    estimates = {}
    for h in (_ADMISSIBILITY_STEP, _ADMISSIBILITY_STEP / 2):
        vals = []
        for i in range(2 * domain.n):
            e = np.zeros_like(x0)
            e[i] = 1.0
            # one point at a time: a rough test field may branch on its value
            f = lambda s: NormalFrame(domain, complex_point(x0 + s * e), r_order=1).grad_norm
            d3 = (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
            vals.append(d3)
        estimates[h] = np.array(vals)
    a, b = estimates[_ADMISSIBILITY_STEP], estimates[_ADMISSIBILITY_STEP / 2]
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
