"""Chern connection, torsion, curvature, and Hessian operators.

Vectors are complexified tangent vectors represented by their coefficients
over the frame (d/dz_1 .. d/dz_n, d/dzbar_1 .. d/dzbar_n); a real tangent
vector has antiholomorphic coefficients conjugate to its holomorphic ones.
Complexified direction indices follow the same ordering as
:mod:`dfindex.fields`: 0..n-1 holomorphic, n..2n-1 conjugate.

The Hermitian inner product is sesquilinear with the holomorphic and
antiholomorphic subbundles orthogonal, so ``<V, W> = V.h G W.h* + V.a G^T
W.a*`` with ``G[j, k] = <d/dz_j, d/dz_k>``.

Every operator takes the :class:`ChernFrame` it evaluates on first, then
its vector arguments, but the Hessian operators contract the tensor that
:func:`hess_tensor` builds (and :func:`h3_tensor` extends) once per table of
the differentiated function.  Every operator takes one point or a batch
(see :mod:`dfindex.boundary`).  :func:`chern_frame` is where a metric's
jets are inverted.  All operators are tensorial in the sense
established for the Hessian and its third-order extension: they depend only
on pointwise values of their vector arguments, so constant test vectors
suffice; vector fields enter only through :func:`covariant_derivative` and
:func:`torsion_from_fields`, which consume coefficient jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .fields import _points, dz_jet, seed_coordinate_jets, wirtinger_table
from .jets import Jet, JetOrderError, _mapped, branch, exp

__all__ = [
    "CTVector",
    "MetricError",
    "MetricField",
    "resolve_metric",
    "VectorField",
    "chern_frame",
    "metric_compat_residual",
    "kahler_defect",
    "covariant_derivative",
    "torsion",
    "torsion_from_fields",
    "curvature",
    "curvature_contraction",
    "hess_tensor",
    "h3_tensor",
    "hess_op",
    "h3_op",
    "inner",
    "norm2",
]


class MetricError(ValueError):
    """Metric matrix is singular, non-Hermitian, or not positive definite."""


_HERMITIAN_TOL = 1e-12      # relative defect from Hermitian that a metric matrix may have
_CONTRACTION_TOL = 1e-9     # relative imaginary part that a curvature contraction may have


# ----------------------------------------------------------------------
# complexified tangent vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CTVector:
    """Complexified tangent vector with holomorphic/antiholomorphic parts."""

    h: np.ndarray
    a: np.ndarray

    @staticmethod
    def holo(w):
        w = np.asarray(w, dtype=complex)
        return CTVector(w, np.zeros_like(w))

    @staticmethod
    def anti(w):
        w = np.asarray(w, dtype=complex)
        return CTVector(np.zeros_like(w), w)

    @staticmethod
    def real_vector(w):
        """Real tangent vector with (1,0)-part coefficients ``w``."""
        w = np.asarray(w, dtype=complex)
        return CTVector(w, w.conj())

    def conj(self):
        return CTVector(self.a.conj(), self.h.conj())

    def J(self):
        return CTVector(1j * self.h, -1j * self.a)

    def __add__(self, other):
        return CTVector(self.h + other.h, self.a + other.a)

    def __sub__(self, other):
        return CTVector(self.h - other.h, self.a - other.a)

    def __mul__(self, c):
        return CTVector(c * self.h, c * self.a)

    __rmul__ = __mul__

    def __neg__(self):
        return CTVector(-self.h, -self.a)

    @property
    def coeffs(self):
        """Concatenated coefficients over the 2n complexified directions."""
        return np.concatenate([self.h, self.a], axis=-1)


def _lead(a, rank):
    """A table array of derivative rank ``rank`` with its trailing batch axes moved first."""
    batch = a.ndim - rank
    return np.moveaxis(a, tuple(range(rank, a.ndim)), tuple(range(batch))) if batch else a


def _matvec(mat, v):
    """mat v per point (stacked ``@``)."""
    return (mat @ v[..., None])[..., 0]


def _dot(a, b):
    """sum_k a_k b_k per point (stacked ``@``); a complex for one point."""
    return _per_point((a[..., None, :] @ b[..., :, None])[..., 0, 0])


def _pair(a, mat, b):
    """a^T mat b per point (stacked ``@``); a complex for one point."""
    return _per_point((a[..., None, :] @ mat @ b[..., :, None])[..., 0, 0])


def _per_point(out):
    """A Python scalar for one point (a 0-d result); the (B,) array for a batch."""
    out = np.asarray(out)
    return out if out.ndim else out.item()


def _abs(c):
    """|c| per point, rounded as Python's ``abs`` of a complex (NumPy's complex abs may not be)."""
    return _per_point(np.hypot(np.real(c), np.imag(c)))


def _abs_sq(c):
    """|c|^2 per point, rounded as Python's ``abs(c) ** 2`` (a NumPy square may round otherwise)."""
    if not isinstance(c, np.ndarray):
        c = complex(c)
    return _per_point(_mapped(pow, _mapped(abs, c), 2))


def inner(g, v, w):
    """Hermitian inner product of complexified vectors for metric matrix ``g`` (per point)."""
    return _pair(v.h, g, w.h.conj()) + _pair(v.a, np.swapaxes(g, -1, -2), w.a.conj())


def norm2(g, v):
    return _per_point(np.real(inner(g, v, v)))


# ----------------------------------------------------------------------
# metric fields
# ----------------------------------------------------------------------

class MetricField:
    """Hermitian metric from one evaluator of its entry matrix.

    ``fn(zs)`` maps coordinate jets (at one point or a batch) to the n x n
    nested list of entry jets g[j][k] = <d/dz_j, d/dz_k>, so subexpressions
    shared by several entries are computed once per evaluation.
    """

    def __init__(self, n, fn, name="metric"):
        self.n = n
        self.fn = fn
        self.name = name

    @classmethod
    def euclidean(cls, n):
        def fn(zs):
            return [[Jet.constant(1.0 if j == k else 0.0, 2 * n, zs[0].order) for k in range(n)]
                    for j in range(n)]

        return cls(n, fn, name="euclidean")

    @classmethod
    def conformal(cls, n, u_field):
        """e^u times the euclidean metric; ``u_field.fn`` consumes coordinate jets."""

        def fn(zs):
            e_u, zero = exp(u_field.fn(zs)), Jet.constant(0.0, 2 * n, zs[0].order)
            return [[e_u if j == k else zero for k in range(n)] for j in range(n)]

        return cls(n, fn, name="conformal")

    def jets(self, z, order):
        """(n, n) nested list of entry jets sharing one coordinate seed (at one point or a batch)."""
        zs = seed_coordinate_jets(z, order)
        batch = zs[0].shape
        return [[entry.broadcast(batch) for entry in row] for row in self.fn(zs)]

    def matrix(self, z):
        """Hermitian matrix at one point (n, n), or stacked over a batch of points (B, n, n)."""
        return _hermitian_matrix(self, self.jets(z, 0), z)


def _values(mjets):
    """The values of an (n, n) nested list of entry jets: (n, n), or (B, n, n) over a batch.

    The stack is C-contiguous, as each one-point matrix is: a strided view
    can round a matrix product differently.
    """
    stack = np.array([[e.value for e in row] for row in mjets], dtype=complex)
    return np.ascontiguousarray(np.moveaxis(stack, (0, 1), (-2, -1)))


def _hermitian_matrix(metric, mjets, z):
    """The Hermitian part of the values of ``metric``'s entry jets at ``z`` (checked as Hermitian)."""
    m = _values(mjets)
    return 0.5 * (m + _check_hermitian(m, metric.name, z))


def resolve_metric(spec, n, key, named):
    """The metric a spec names on a domain of registry key ``key`` in C^n.

    A spec is a metric name or ``{"entries": n x n expression trees}`` for
    g_{j kbar} (see :mod:`dfindex.expr`).  "euclidean" names the metric
    <d/dz_j, d/dz_k> = delta_jk on every key; ``named`` maps the key's own
    metric names to builders, called only for the name asked for.
    """
    builders = {"euclidean": lambda: MetricField.euclidean(n), **named}
    if isinstance(spec, dict):
        entries = spec.get("entries")
        if not (isinstance(entries, list) and len(entries) == n
                and all(isinstance(row, list) and len(row) == n for row in entries)):
            raise ValueError(f"metric spec must be {{\"entries\": {n}x{n} expression trees}}, got {spec!r}")
        fields = [[expr.build_field(tree, n, name=f"g[{j}{k}]") for k, tree in enumerate(row)]
                  for j, row in enumerate(entries)]
        return MetricField(n, lambda zs: [[f.fn(zs) for f in row] for row in fields], name="user_metric")
    if isinstance(spec, str) and spec in builders:
        return builders[spec]()
    raise ValueError(f"{key} supports metrics {list(builders)}, got {spec!r}")


def _check_hermitian(m, name, z):
    """The conjugate transpose of ``m`` (one matrix or a stack); raises unless each is Hermitian.

    A NaN entry fails the check, except at a point with a NaN coordinate:
    such a point lies outside every chart and its NaN values pass through.
    """
    z = np.asarray(z)
    mh = np.swapaxes(m.conj(), -1, -2)
    herm = np.max(np.abs(m - mh), axis=(-2, -1))
    bad = ~(herm <= _HERMITIAN_TOL * (1.0 + np.max(np.abs(m), axis=(-2, -1)))) & ~np.any(np.isnan(z), axis=-1)
    if np.any(bad):
        at, defect = z[bad][0], herm[bad][0]
        raise MetricError(f"metric {name!r} not Hermitian at {at} (defect {defect:.3e})")
    return mh


# ----------------------------------------------------------------------
# vector fields (coefficient fields with jets)
# ----------------------------------------------------------------------

class VectorField:
    """Vector field of type (1,0) with ScalarField coefficients."""

    def __init__(self, n, h_fields=None):
        self.n = n
        self.h_fields = h_fields

    @classmethod
    def from_holo(cls, coeff_fields):
        return cls(len(coeff_fields), h_fields=list(coeff_fields))

    def jets(self, z, order):
        """The (1,0) and (0,1) coefficient jets at one point or over a batch of points."""
        zs = seed_coordinate_jets(_points(z), order)
        batch = zs[0].shape
        zero = Jet.constant(0.0, 2 * self.n, order).broadcast(batch)
        hj = [f.fn(zs).broadcast(batch) if f is not None else zero
              for f in (self.h_fields or [None] * self.n)]
        return hj, [zero] * self.n      # the (0,1) coefficients are zero

    def value(self, z):
        """The vector at one point (n,), or at each point of a batch (B, n)."""
        return CTVector.holo(_stack_values(self.jets(z, 0)[0]))


def _stack_values(js):
    """The values of ``n`` coefficient jets as a complex (n,), or (B, n) over a batch.

    Here and in :func:`_w1_rows` the stack is C-contiguous, as each
    one-point array is: a strided view can round a matrix product differently.
    """
    return np.ascontiguousarray(_lead(np.array([j.value for j in js], dtype=complex), 1))


def _w1_rows(js, n):
    """The first Wirtinger derivatives of ``n`` coefficient jets: (n, 2n), or (B, n, 2n) over a batch."""
    return np.ascontiguousarray(_lead(np.array([wirtinger_table(j, n).w1 for j in js]), 2))


# ----------------------------------------------------------------------
# jet-valued linear algebra (metric inverse in the jet ring)
# ----------------------------------------------------------------------

def jet_matrix_inverse(mat):
    """Inverse of a matrix of jets by Gauss-Jordan elimination with partial pivoting.

    Over a batch, points whose pivot rows differ go on with the elimination
    on their own columns (:func:`dfindex.jets.branch`), so every column
    follows its own point's steps.
    """
    n = len(mat)
    m, order = mat[0][0].m, mat[0][0].order
    inv = [[Jet.constant(1.0 if i == j else 0.0, m, order) for j in range(n)] for i in range(n)]
    return _eliminate([row[:] for row in mat], inv, 0)


def _eliminate(a, inv, col):
    """Gauss-Jordan steps on the rows ``a`` and ``inv`` from column ``col`` on; the inverse."""
    n = len(a)
    if col == n:
        return inv
    mags = np.array([np.abs(a[r][col].value) for r in range(col, n)])
    piv = col + np.argmax(mags, axis=0)
    if np.any(np.max(mags, axis=0) < 1e-14):
        raise MetricError("singular metric (jet matrix inverse)")
    first = piv == np.ravel(piv)[0]
    if not first.all():
        return branch(first, lambda s: _eliminate(*s, col), lambda s: _eliminate(*s, col), (a, inv))
    piv = int(np.ravel(piv)[0])
    if piv != col:
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
    scale = a[col][col].reciprocal()
    a[col] = [e * scale for e in a[col]]
    inv[col] = [e * scale for e in inv[col]]
    for r in range(n):
        if r == col:
            continue
        factor = a[r][col]
        if factor.order == 0 and not np.any(factor.value):
            continue
        a[r] = [a[r][j] - factor * a[col][j] for j in range(n)]
        inv[r] = [inv[r][j] - factor * inv[col][j] for j in range(n)]
    return _eliminate(a, inv, col + 1)


# ----------------------------------------------------------------------
# connection data at a point
# ----------------------------------------------------------------------

@dataclass
class ChernFrame:
    """Metric, Christoffel symbols, and their first derivatives at a point.

    Over a batch of points every array carries a leading batch axis.
    """

    z: np.ndarray
    n: int
    order: int                   # of the metric jets it is derived from; dGamma needs 2
    g: np.ndarray
    ginv_jets: list              # (n, n) nested list: the jets of g^{-1}, of order ``order``
    gamma: np.ndarray            # gamma[i, j, k] = Gamma^i_{jk}
    dgamma_h: np.ndarray | None  # [p, i, j, k] = d/dz_p Gamma^i_{jk}
    dgamma_a: np.ndarray | None  # [p, i, j, k] = d/dzbar_p Gamma^i_{jk}
    dG_h: np.ndarray             # [p, j, k] = d/dz_p g_{j kbar}

    @cached_property
    def gamma2n(self):
        n = self.n
        out = np.zeros(self.gamma.shape[:-3] + (2 * n, 2 * n, 2 * n), dtype=complex)
        out[..., :n, :n, :n] = self.gamma
        out[..., n:, n:, n:] = self.gamma.conj()
        return out

    @cached_property
    def dgamma2n(self):
        if self.order < 2:
            raise JetOrderError(f"dGamma needs metric jets of order 2, the connection has {self.order}")
        n = self.n
        out = np.zeros(self.gamma.shape[:-3] + (2 * n,) * 4, dtype=complex)
        out[..., :n, :n, :n, :n] = self.dgamma_h
        out[..., n:, :n, :n, :n] = self.dgamma_a
        out[..., :n, n:, n:, n:] = self.dgamma_a.conj()
        out[..., n:, n:, n:, n:] = self.dgamma_h.conj()
        return out

    @property
    def curvature_tensor(self):
        """R[j, k, i, l]: (R(d/dz_j, d/dzbar_k) d/dz_l)^i = -dzbar_k Gamma^i_{jl}."""
        dgamma_a = np.ascontiguousarray(self.dgamma2n[..., self.n:, :self.n, :self.n, :self.n])
        return -np.moveaxis(dgamma_a, (-4, -3, -2, -1), (-3, -2, -4, -1))


def chern_frame(metric, z, order=2, mjets=None):
    """Connection data at ``z`` (one point or a batch) from the metric's entry jets.

    ``mjets`` are those jets at ``z`` when already computed, and the frame
    has their order; else the metric is evaluated through ``order``.  Their
    inverse is kept as ``ginv_jets``.
    """
    z = _points(z)
    n = metric.n
    mjets = metric.jets(z, order) if mjets is None else mjets
    order = mjets[0][0].order
    if order < 1:
        raise JetOrderError(f"the connection needs metric jets of order 1, got {order}")
    g = _values(mjets)
    batch = g.shape[:-2]
    _check_hermitian(g, metric.name, z)

    minv_jets = jet_matrix_inverse(mjets)
    p_jets = [[minv_jets[i][m_].conj() for m_ in range(n)] for i in range(n)]
    dm = [[[dz_jet(mjets[k][m_], j, n) for m_ in range(n)] for k in range(n)] for j in range(n)]

    zero = Jet.constant(0.0, 2 * n, order - 1)
    gamma = np.zeros(batch + (n, n, n), dtype=complex)
    dgamma_h = np.zeros(batch + (n, n, n, n), dtype=complex) if order >= 2 else None
    dgamma_a = np.zeros(batch + (n, n, n, n), dtype=complex) if order >= 2 else None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gjet = sum((p_jets[i][m_] * dm[j][k][m_] for m_ in range(n)), zero)
                gamma[..., i, j, k] = gjet.value
                if order >= 2:
                    w1 = _lead(wirtinger_table(gjet, n).w1, 1)
                    dgamma_h[..., :, i, j, k] = w1[..., :n]
                    dgamma_a[..., :, i, j, k] = w1[..., n:]

    dG_h = np.stack([_values(dm[p]) for p in range(n)], axis=-3)
    return ChernFrame(z=z, n=n, order=order, g=g, ginv_jets=minv_jets, gamma=gamma,
                      dgamma_h=dgamma_h, dgamma_a=dgamma_a, dG_h=dG_h)


def metric_compat_residual(metric, z):
    """max | d_j g_{k lbar} - sum_i Gamma^i_{jk} g_{i lbar} | at one point, or at each point of a batch."""
    fr = chern_frame(metric, z, order=1)
    pred = np.einsum("...ijk,...il->...jkl", fr.gamma, fr.g)
    return _per_point(np.max(np.abs(fr.dG_h - pred), axis=(-3, -2, -1)))


def kahler_defect(metric, z):
    """max | d_l g_{j kbar} - d_j g_{l kbar} | over one point or every point of a batch.

    Zero iff d omega = 0 at the points; a NaN at any point gives NaN.
    """
    dG_h = chern_frame(metric, z, order=1).dG_h
    return float(np.max(np.abs(dG_h - np.swapaxes(dG_h, -3, -2))))


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

def covariant_derivative(frame, direction, v):
    """Chern covariant derivative of vector field ``v`` along ``direction`` at ``frame.z``.

    ``v`` may be a :class:`VectorField` or a pair ``(h_jets, a_jets)`` of
    order->=1 coefficient jets at the frame's points.
    """
    n = frame.n
    hj, aj = v.jets(frame.z, 1) if isinstance(v, VectorField) else v

    def part(js, gamma, d):
        return (_matvec(_w1_rows(js, n), direction.coeffs)
                + np.einsum("...ijk,...j,...k->...i", gamma, d, _stack_values(js)))

    return CTVector(part(hj, frame.gamma, direction.h), part(aj, frame.gamma.conj(), direction.a))


def torsion(frame, x, y):
    """Torsion tensor T(X, Y) evaluated pointwise (tensorial in X, Y), per point of a batch."""
    anti = frame.gamma - np.swapaxes(frame.gamma, -1, -2)
    out_h = np.einsum("...ijk,...j,...k->...i", anti, x.h, y.h)
    out_a = np.einsum("...ijk,...j,...k->...i", anti.conj(), x.a, y.a)
    return CTVector(out_h, out_a)


def torsion_from_fields(frame, xf, yf):
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y] for coefficient-field inputs.

    Exists to validate that the pointwise tensor agrees with the defining
    formula; the commutator is assembled from the coefficient jets.
    """
    n, z = frame.n, frame.z
    x0, y0 = xf.value(z), yf.value(z)
    xj, yj = xf.jets(z, 1), yf.jets(z, 1)
    lie = CTVector(*(_matvec(_w1_rows(y, n), x0.coeffs) - _matvec(_w1_rows(x, n), y0.coeffs)
                     for x, y in zip(xj, yj)))
    return covariant_derivative(frame, x0, yj) - covariant_derivative(frame, y0, xj) - lie


def curvature(frame, x, y, v):
    """R(X, Y)V for the Chern connection; curvature is of pure (1,1) type."""
    rt = frame.curvature_tensor  # R[j, k, i, l]
    pair = x.h[..., :, None] * y.a[..., None, :] - y.h[..., :, None] * x.a[..., None, :]  # [j, k]
    end_h = np.einsum("...jkil,...jk->...il", rt, pair)
    xa, xh, ya, yh = x.a.conj(), x.h.conj(), y.a.conj(), y.h.conj()
    pair_c = xa[..., :, None] * yh[..., None, :] - ya[..., :, None] * xh[..., None, :]
    end_a = np.einsum("...jkil,...jk->...il", rt, pair_c).conj()
    return CTVector((end_h @ v.h[..., None])[..., 0], (end_a @ v.a[..., None])[..., 0])


def curvature_contraction(frame, zvec, v):
    """<R(Z, Zbar)V, V> for a (1,0) vector Z; real by Hermitian symmetry."""
    rv = curvature(frame, CTVector.holo(zvec.h), CTVector.anti(zvec.h.conj()), v)
    val = inner(frame.g, rv, v)
    off = ~(np.abs(np.imag(val)) <= _CONTRACTION_TOL * (1.0 + np.abs(np.real(val))))   # a NaN value fails
    if np.any(off):
        raise MetricError(f"curvature contraction not real: {np.asarray(val)[off][0]}")
    return _per_point(np.real(val))


def hess_tensor(table, frame):
    """Hess(d_a, d_b) f over the 2n complexified directions (batch axis first)."""
    w1, w2 = _lead(table.w1, 1), _lead(table.w2, 2)
    return w2 - np.einsum("...eab,...e->...ab", frame.gamma2n, w1)


def h3_tensor(table, frame, hc):
    """H^3(d_a, d_b, d_c) f (batch axis first), extending the Hessian tensor ``hc`` of f."""
    g2 = frame.gamma2n
    w1, w2, w3 = _lead(table.w1, 1), _lead(table.w2, 2), _lead(table.w3, 3)
    out = w3 - np.einsum("...aebc,...e->...abc", frame.dgamma2n, w1)
    out = out - np.einsum("...ebc,...ae->...abc", g2, w2)
    out = out - np.einsum("...eab,...ec->...abc", g2, hc)
    out = out - np.einsum("...eac,...be->...abc", g2, hc)
    return out


def hess_op(hc, x, y):
    """Hess(X, Y) f = XYf - (nabla_X Y) f from the Hessian tensor ``hc`` of f, tensorial in X, Y."""
    return _pair(x.coeffs, hc, y.coeffs)


def h3_op(t3, x1, x2, x3):
    """Third-order Hessian H^3(X1, X2, X3) f from its tensor ``t3``, tensorial in pointwise values."""
    return _per_point(np.einsum("...abc,...a,...b,...c->...", t3, x1.coeffs, x2.coeffs, x3.coeffs))
