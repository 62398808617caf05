"""Chern connection, torsion, curvature, and Hessian operators.

Vectors are complexified tangent vectors represented by their coefficients
over the frame (d/dz_1 .. d/dz_n, d/dzbar_1 .. d/dzbar_n); a real tangent
vector has antiholomorphic coefficients conjugate to its holomorphic ones.
Complexified direction indices follow the same ordering as
:mod:`dfindex.fields`: 0..n-1 holomorphic, n..2n-1 conjugate.

The Hermitian inner product is sesquilinear with the holomorphic and
antiholomorphic subbundles orthogonal, so ``<V, W> = V.h G W.h* + V.a G^T
W.a*`` with ``G[j, k] = <d/dz_j, d/dz_k>``.

All operators are tensorial in the sense established for the Hessian and
its third-order extension: they depend only on pointwise values of their
vector arguments, so constant test vectors suffice; vector fields enter only
through :func:`covariant_derivative`, which consumes coefficient jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, dz_jet, seed_coordinate_jets, wirtinger_table
from .jets import Jet

__all__ = [
    "CTVector",
    "MetricError",
    "MetricField",
    "VectorField",
    "chern_frame",
    "metric_compat_residual",
    "kahler_defect",
    "covariant_derivative",
    "torsion",
    "torsion_from_fields",
    "curvature",
    "curvature_contraction",
    "hess_op",
    "h3_op",
    "inner",
    "norm2",
]


class MetricError(ValueError):
    """Metric matrix is singular, non-Hermitian, or not positive definite."""


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

    def is_real(self, tol=1e-12):
        return bool(np.max(np.abs(self.a - self.h.conj())) <= tol * (1.0 + np.max(np.abs(self.h))))


def inner(g, v, w):
    """Hermitian inner product of complexified vectors for metric matrix ``g``."""
    return complex(v.h @ g @ w.h.conj() + v.a @ g.T @ w.a.conj())


def norm2(g, v):
    value = inner(g, v, v)
    return float(value.real)


# ----------------------------------------------------------------------
# metric fields
# ----------------------------------------------------------------------

class MetricField:
    """Hermitian metric given by entry fields g[j][k] = <d/dz_j, d/dz_k>."""

    def __init__(self, n, entries, name="metric"):
        self.n = n
        self.entries = entries
        self.name = name

    @classmethod
    def euclidean(cls, n, scale=1.0):
        def make(j, k):
            v = scale if j == k else 0.0
            return ScalarField(n, lambda zs, v=v: Jet.constant(v, 2 * n, zs[0].order), f"delta[{j}{k}]")

        return cls(n, [[make(j, k) for k in range(n)] for j in range(n)], name="euclidean")

    @classmethod
    def conformal(cls, n, u_field, name="conformal"):
        """e^u times the euclidean metric; ``u_field.fn`` consumes coordinate jets."""

        def make(j, k):
            if j != k:
                return ScalarField(n, lambda zs: Jet.constant(0.0, 2 * n, zs[0].order), "0")
            return ScalarField(n, lambda zs: _exp_of(u_field, zs), f"e^u[{j}{j}]")

        from . import jets as _j

        def _exp_of(uf, zs):
            return _j.exp(uf.fn(zs))

        return cls(n, [[make(j, k) for k in range(n)] for j in range(n)], name=name)

    def jets(self, z, order):
        """(n, n) nested list of entry jets sharing one coordinate seed."""
        zs = seed_coordinate_jets(np.asarray(z, dtype=complex).ravel(), order)
        return [[self.entries[j][k].fn(zs) for k in range(self.n)] for j in range(self.n)]

    def matrix(self, z, tol=1e-12):
        """Hermitian matrix at one point (n, n), or stacked over a batch of points (B, n, n)."""
        zs = seed_coordinate_jets(z, 0)
        batch = zs[0].shape
        m = np.empty(batch + (self.n, self.n), dtype=complex)
        for j in range(self.n):
            for k in range(self.n):
                m[..., j, k] = self.entries[j][k].fn(zs).value
        mh = np.swapaxes(m.conj(), -1, -2)
        herm = np.max(np.abs(m - mh), axis=(-2, -1))
        bad = herm > tol * (1.0 + np.max(np.abs(m), axis=(-2, -1)))
        if np.any(bad):
            at, defect = (z, herm) if not batch else (np.asarray(z)[bad][0], herm[bad][0])
            raise MetricError(f"metric {self.name!r} not Hermitian at {at} (defect {defect:.3e})")
        return 0.5 * (m + mh)


# ----------------------------------------------------------------------
# vector fields (coefficient fields with jets)
# ----------------------------------------------------------------------

class VectorField:
    """Complexified vector field with ScalarField coefficients."""

    def __init__(self, n, h_fields=None, a_fields=None):
        self.n = n
        self.h_fields = h_fields
        self.a_fields = a_fields

    @classmethod
    def from_holo(cls, coeff_fields):
        return cls(len(coeff_fields), h_fields=list(coeff_fields))

    def jets(self, z, order):
        zs = seed_coordinate_jets(np.asarray(z, dtype=complex).ravel(), order)
        zero = Jet.constant(0.0, 2 * self.n, order)
        hj = [f.fn(zs) if f is not None else zero for f in (self.h_fields or [None] * self.n)]
        aj = [f.fn(zs) if f is not None else zero for f in (self.a_fields or [None] * self.n)]
        return hj, aj

    def value(self, z):
        hj, aj = self.jets(z, 0)
        return CTVector(np.array([j.value for j in hj], dtype=complex),
                        np.array([j.value for j in aj], dtype=complex))


# ----------------------------------------------------------------------
# jet-valued linear algebra (metric inverse in the jet ring)
# ----------------------------------------------------------------------

def jet_matrix_inverse(mat):
    n = len(mat)
    m, order = mat[0][0].m, mat[0][0].order
    a = [row[:] for row in mat]
    inv = [[Jet.constant(1.0 if i == j else 0.0, m, order) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[piv][col].value) < 1e-14:
            raise MetricError("singular metric (jet matrix inverse)")
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
            if factor.value == 0 and factor.order == 0:
                continue
            a[r] = [a[r][j] - factor * a[col][j] for j in range(n)]
            inv[r] = [inv[r][j] - factor * inv[col][j] for j in range(n)]
    return inv


def jet_matrix_solve(mat, rhs):
    """Solve M x = rhs for jet vector x (via the jet-ring inverse; n is small)."""
    inv = jet_matrix_inverse(mat)
    n = len(mat)
    return [sum((inv[i][j] * rhs[j] for j in range(n)),
                Jet.constant(0.0, mat[0][0].m, mat[0][0].order)) for i in range(n)]


# ----------------------------------------------------------------------
# connection data at a point
# ----------------------------------------------------------------------

@dataclass
class ChernFrame:
    """Metric, Christoffel symbols, and their first derivatives at a point."""

    z: np.ndarray
    n: int
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray            # gamma[i, j, k] = Gamma^i_{jk}
    dgamma_h: np.ndarray | None  # [p, i, j, k] = d/dz_p Gamma^i_{jk}
    dgamma_a: np.ndarray | None  # [p, i, j, k] = d/dzbar_p Gamma^i_{jk}
    dG_h: np.ndarray             # [p, j, k] = d/dz_p g_{j kbar}
    _gamma2n: np.ndarray | None = field(default=None, repr=False)
    _dgamma2n: np.ndarray | None = field(default=None, repr=False)

    @property
    def gamma2n(self):
        if self._gamma2n is None:
            n = self.n
            out = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
            out[:n, :n, :n] = self.gamma
            out[n:, n:, n:] = self.gamma.conj()
            self._gamma2n = out
        return self._gamma2n

    @property
    def dgamma2n(self):
        if self._dgamma2n is None:
            if self.dgamma_h is None:
                raise ValueError("connection derivatives unavailable (metric jets of order < 2)")
            n = self.n
            out = np.zeros((2 * n, 2 * n, 2 * n, 2 * n), dtype=complex)
            out[:n, :n, :n, :n] = self.dgamma_h
            out[n:, :n, :n, :n] = self.dgamma_a
            out[:n, n:, n:, n:] = self.dgamma_a.conj()
            out[n:, n:, n:, n:] = self.dgamma_h.conj()
            self._dgamma2n = out
        return self._dgamma2n

    @property
    def curvature_tensor(self):
        """R[j, k, i, l]: (R(d/dz_j, d/dzbar_k) d/dz_l)^i = -dzbar_k Gamma^i_{jl}."""
        return -self.dgamma_a.transpose(2, 0, 1, 3)


def chern_frame(metric, z, order=2):
    """Connection data at ``z`` from metric entry jets of the given order."""
    z = np.asarray(z, dtype=complex).ravel()
    n = metric.n
    mjets = metric.jets(z, order)
    g = np.array([[mjets[j][k].value for k in range(n)] for j in range(n)], dtype=complex)
    herm = np.max(np.abs(g - g.conj().T))
    if herm > 1e-12 * (1.0 + np.max(np.abs(g))):
        raise MetricError(f"metric {metric.name!r} not Hermitian at {z} (defect {herm:.3e})")
    ginv = np.linalg.inv(g)

    minv_jets = jet_matrix_inverse(mjets)
    p_jets = [[minv_jets[i][m_].conj() for m_ in range(n)] for i in range(n)]
    dm = [[[dz_jet(mjets[k][m_], j, n) for m_ in range(n)] for k in range(n)] for j in range(n)]

    zero = Jet.constant(0.0, 2 * n, order - 1)
    gamma = np.zeros((n, n, n), dtype=complex)
    dgamma_h = np.zeros((n, n, n, n), dtype=complex) if order >= 2 else None
    dgamma_a = np.zeros((n, n, n, n), dtype=complex) if order >= 2 else None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gjet = sum((p_jets[i][m_] * dm[j][k][m_] for m_ in range(n)), zero)
                gamma[i, j, k] = gjet.value
                if order >= 2:
                    w1 = wirtinger_table(gjet, n).w1
                    dgamma_h[:, i, j, k] = w1[:n]
                    dgamma_a[:, i, j, k] = w1[n:]

    dG_h = np.zeros((n, n, n), dtype=complex)
    for pidx in range(n):
        for j in range(n):
            for k in range(n):
                dG_h[pidx, j, k] = dz_jet(mjets[j][k], pidx, n).value

    return ChernFrame(z=z, n=n, g=g, ginv=ginv, gamma=gamma,
                      dgamma_h=dgamma_h, dgamma_a=dgamma_a, dG_h=dG_h)


def metric_compat_residual(metric, z):
    """max | d_j g_{k lbar} - sum_i Gamma^i_{jk} g_{i lbar} |."""
    fr = chern_frame(metric, z, order=1)
    pred = np.einsum("ijk,il->jkl", fr.gamma, fr.g)
    return float(np.max(np.abs(fr.dG_h - pred)))


def kahler_defect(metric, z):
    """max | d_l g_{j kbar} - d_j g_{l kbar} |; zero iff d omega = 0 at z."""
    fr = chern_frame(metric, z, order=1)
    return float(np.max(np.abs(fr.dG_h - fr.dG_h.transpose(1, 0, 2))))


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

def _direction_derivative(table, x):
    """X f from a Wirtinger table and a complexified vector."""
    return complex(x.coeffs @ table.w1)


def covariant_derivative(metric, z, direction, v, frame=None):
    """Chern covariant derivative of vector field ``v`` along ``direction`` at ``z``.

    ``v`` may be a :class:`VectorField` or a pair ``(h_jets, a_jets)`` of
    order->=1 coefficient jets.
    """
    if frame is None:
        frame = chern_frame(metric, z, order=1)
    n = metric.n
    if isinstance(v, VectorField):
        hj, aj = v.jets(z, 1)
    else:
        hj, aj = v
    w1h = np.array([wirtinger_table(j, n).w1 for j in hj])  # (n, 2n)
    w1a = np.array([wirtinger_table(j, n).w1 for j in aj])
    vh = np.array([j.value for j in hj], dtype=complex)
    va = np.array([j.value for j in aj], dtype=complex)
    out_h = w1h @ direction.coeffs + np.einsum("ijk,j,k->i", frame.gamma, direction.h, vh)
    out_a = w1a @ direction.coeffs + np.einsum("ijk,j,k->i", frame.gamma.conj(), direction.a, va)
    return CTVector(out_h, out_a)


def torsion(metric, z, x, y, frame=None):
    """Torsion tensor T(X, Y) evaluated pointwise (tensorial in X, Y)."""
    if frame is None:
        frame = chern_frame(metric, z, order=1)
    anti = frame.gamma - frame.gamma.transpose(0, 2, 1)
    out_h = np.einsum("ijk,j,k->i", anti, x.h, y.h)
    out_a = np.einsum("ijk,j,k->i", anti.conj(), x.a, y.a)
    return CTVector(out_h, out_a)


def torsion_from_fields(metric, z, xf, yf):
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y] for coefficient-field inputs.

    Exists to validate that the pointwise tensor agrees with the defining
    formula; the commutator is assembled from the coefficient jets.
    """
    n = metric.n
    frame = chern_frame(metric, z, order=1)
    x0, y0 = xf.value(z), yf.value(z)
    dxy = covariant_derivative(metric, z, x0, yf, frame=frame)
    dyx = covariant_derivative(metric, z, y0, xf, frame=frame)
    xh, xa = xf.jets(z, 1)
    yh, ya = yf.jets(z, 1)
    w1 = lambda js: np.array([wirtinger_table(j, n).w1 for j in js])
    lie_h = w1(yh) @ x0.coeffs - w1(xh) @ y0.coeffs
    lie_a = w1(ya) @ x0.coeffs - w1(xa) @ y0.coeffs
    lie = CTVector(lie_h, lie_a)
    return dxy - dyx - lie


def curvature(metric, z, x, y, v, frame=None):
    """R(X, Y)V for the Chern connection; curvature is of pure (1,1) type."""
    if frame is None:
        frame = chern_frame(metric, z, order=2)
    rt = frame.curvature_tensor  # R[j, k, i, l]
    pair = np.multiply.outer(x.h, y.a) - np.multiply.outer(y.h, x.a)  # [j, k]
    end_h = np.einsum("jkil,jk->il", rt, pair)
    out_h = end_h @ v.h
    pair_c = np.multiply.outer(x.a.conj(), y.h.conj()) - np.multiply.outer(y.a.conj(), x.h.conj())
    end_a = np.einsum("jkil,jk->il", rt, pair_c).conj()
    out_a = end_a @ v.a
    return CTVector(out_h, out_a)


def curvature_contraction(metric, z, zvec, v, frame=None, tol=1e-9):
    """<R(Z, Zbar)V, V> for a (1,0) vector Z; real by Hermitian symmetry."""
    if frame is None:
        frame = chern_frame(metric, z, order=2)
    rv = curvature(metric, z, CTVector.holo(zvec.h), CTVector.anti(zvec.h.conj()), v, frame=frame)
    val = inner(frame.g, rv, v)
    if abs(val.imag) > tol * (1.0 + abs(val.real)):
        raise MetricError(f"curvature contraction not real: {val}")
    return val.real


def hess_tensor(table, frame):
    """Hess(d_a, d_b) f over the 2n complexified directions."""
    return table.w2 - np.einsum("eab,e->ab", frame.gamma2n, table.w1)


def h3_tensor(table, frame):
    """H^3(d_a, d_b, d_c) f over the 2n complexified directions."""
    hc = hess_tensor(table, frame)
    g2 = frame.gamma2n
    out = table.w3 - np.einsum("aebc,e->abc", frame.dgamma2n, table.w1)
    out = out - np.einsum("ebc,ae->abc", g2, table.w2)
    out = out - np.einsum("eab,ec->abc", g2, hc)
    out = out - np.einsum("eac,be->abc", g2, hc)
    return out


def hess_op(metric, z, f, x, y, frame=None, table=None):
    """Hess(X, Y) f = XYf - (nabla_X Y) f, tensorial in pointwise X, Y."""
    if frame is None:
        frame = chern_frame(metric, z, order=1)
    if table is None:
        table = wirtinger_table(f.jet(z, 2), metric.n)
    hc = hess_tensor(table, frame)
    return complex(x.coeffs @ hc @ y.coeffs)


def h3_op(metric, z, f, x1, x2, x3, frame=None, table=None):
    """Third-order Hessian H^3(X1, X2, X3) f, tensorial in pointwise values."""
    if frame is None:
        frame = chern_frame(metric, z, order=2)
    if table is None:
        table = wirtinger_table(f.jet(z, 3), metric.n)
    t3 = h3_tensor(table, frame)
    return complex(np.einsum("abc,a,b,c->", t3, x1.coeffs, x2.coeffs, x3.coeffs))
