"""Scalar fields on Hermitian coordinate charts and Wirtinger derivatives.

A :class:`ScalarField` wraps a deterministic evaluator that maps the complex
coordinate jets ``z_1 .. z_n`` (built over the ``2n`` underlying real
variables ``x_1 .. x_n, y_1 .. y_n``) to a jet of the field value.  All
geometric code downstream consumes fields through :meth:`ScalarField.jet` and
the complexified derivative tables produced by :func:`wirtinger_table`.

Complexified direction indices are ordered ``0..n-1`` for the holomorphic
directions d/dz_j and ``n..2n-1`` for the antiholomorphic d/dzbar_j.

A chart point has shape ``(n,)``; a batch of points has shape ``(B, n)``
and gives batch jets and tables (see :mod:`dfindex.jets`), whose columns
equal the one-point results bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet, JetOrderError

__all__ = [
    "ChartDomainError",
    "ScalarField",
    "WirtingerTable",
    "wirtinger",
    "wirtinger_table",
    "complex_hessian",
    "dz_jet",
]


class ChartDomainError(ValueError):
    """Evaluation point is outside the field's declared chart region."""


def _points(z):
    """A chart point as shape (n,), or a batch of points as (B, n)."""
    z = np.asarray(z, dtype=complex)
    return z if z.ndim == 2 else z.ravel()


def real_coords(z):
    """Real coordinates [Re z; Im z] of a complex chart point (or of each point of a batch)."""
    z = _points(z)
    return np.concatenate([z.real, z.imag], axis=-1)


def complex_point(x):
    """Complex chart point from stacked real coordinates (or each point of a batch (B, 2n))."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def seed_coordinate_jets(z, order):
    """Complex coordinate jets z_j = x_j + i*y_j over the 2n real variables.

    ``z`` is one point (n,) or a batch (B, n); a batch gives jets of batch shape (B,).
    """
    z = _points(z)
    n = z.shape[-1]
    m = 2 * n
    out = []
    for j in range(n):
        xj = Jet.variable(z[..., j].real.copy(), j, m, order)
        yj = Jet.variable(z[..., j].imag.copy(), n + j, m, order)
        out.append(xj + 1j * yj)
    return out


class ScalarField:
    """Deterministic scalar field evaluator with jets through order 3.

    Parameters
    ----------
    n : int
        Complex chart dimension.
    fn : callable
        Maps a list of n complex coordinate jets to the field's jet.
    name : str
        Diagnostic tag.
    guard : callable or None
        Optional predicate ``guard(z)`` raising :class:`ChartDomainError`
        for points the evaluator cannot handle (e.g. near a removed fiber).
    """

    def __init__(self, n, fn, name="", guard=None):
        self.n = n
        self.fn = fn
        self.name = name
        self.guard = guard

    def check_point(self, z):
        """``z`` as one point (n,) or a batch (B, n); raises if the guard rejects any point."""
        z = _points(z)
        if z.shape[-1] != self.n:
            raise ValueError(f"field {self.name!r} expects {self.n} complex coordinates")
        if self.guard is not None:
            self.guard(z)
        return z

    def jet(self, z, order):
        """Jet of the field at one point, or batch jet over a batch of points."""
        if not 0 <= order <= jets.MAX_ORDER:
            raise JetOrderError(
                f"field {self.name!r} supports jet orders 0..{jets.MAX_ORDER}, got {order}"
            )
        z = self.check_point(z)
        # a field that ignores its coordinates (a constant) returns a one-point jet
        return self.fn(seed_coordinate_jets(z, order)).broadcast(z.shape[:-1])

    def __call__(self, z):
        return self.jet(z, 0).value


def _wirtinger_matrix(n):
    """Rows express d/dz_j and d/dzbar_j over the 2n real directions."""
    q = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        q[j, j] = 0.5
        q[j, n + j] = -0.5j
        q[n + j, j] = 0.5
        q[n + j, n + j] = 0.5j
    return q


@dataclass
class WirtingerTable:
    """Complexified derivative tables of a jet.

    ``w1[a]``, ``w2[a, b]``, ``w3[a, b, c]`` are the derivatives along the
    complexified directions; indices < n are holomorphic, >= n conjugate.
    Tables are fully symmetric.  A table of a batch jet carries the batch
    axes last, as the jet does.
    """

    n: int
    order: int
    value: complex
    w1: np.ndarray | None = None
    w2: np.ndarray | None = None
    w3: np.ndarray | None = None

    def d(self, *dirs):
        k = len(dirs)
        if k > self.order:
            raise JetOrderError(f"requested order-{k} derivative from an order-{self.order} table")
        if k == 0:
            return self.value
        if k == 1:
            return self.w1[dirs[0]]
        if k == 2:
            return self.w2[dirs[0], dirs[1]]
        return self.w3[dirs[0], dirs[1], dirs[2]]

    @property
    def holo_grad(self):
        return self.w1[: self.n]

    @property
    def mixed_hessian(self):
        """Matrix [d^2 f / dz_j dzbar_k]; Hermitian for real fields."""
        return self.w2[: self.n, self.n :]


_BLOCK_COLUMNS = 256   # batch columns per pass of _contract


@functools.cache
def _wirtinger_terms(n, order, dense):
    """Each output entry's terms of the order-``order`` Wirtinger contraction, by term slot.

    Returns ``(index, coef)``, each of shape (terms, outputs): the flat index
    of the real-derivative entry of slot k of every (flat) output entry, and
    its coefficient ``q[a, p] * q[b, q] (* q[c, r])`` formed left to right.
    The terms are in lexicographic (p, q, r) order; ``dense`` keeps all
    (2n)^order of them, zero coefficients included, otherwise only the
    nonzero 2^order.
    """
    q = _wirtinger_matrix(n)
    m = 2 * n
    index, coef = [], []
    for out in itertools.product(range(m), repeat=order):
        terms = [t for t in itertools.product(range(m), repeat=order)
                 if dense or all(q[a, p] != 0 for a, p in zip(out, t))]
        index.append([np.ravel_multi_index(t, (m,) * order) for t in terms])
        coef.append([math.prod(q[a, p] for a, p in zip(out, t)) for t in terms])
    index, coef = np.array(index).T, np.array(coef).T
    index.flags.writeable = coef.flags.writeable = False    # shared by every caller
    return index, coef


def _contract(table, n, order, dense):
    """sum_{p,q(,r)} q[a,p] q[b,q] (q[c,r]) table[p,q(,r)], term by term in lexicographic order.

    The sum starts from zeros and adds one term slot at a time over all
    output entries, for a block of at most ``_BLOCK_COLUMNS`` batch columns
    at a time, so the term buffer stays small however wide the batch; the
    coefficient multiplies the table entry as a complex product, as the
    dense sum casts a real table.
    """
    index, coef = _wirtinger_terms(n, order, dense)
    m = 2 * n
    batch = table.shape[order:]
    # a one-point table is one column
    flat = table.reshape(m**order, math.prod(batch)).astype(np.complex128, copy=False)
    out = np.zeros(flat.shape, dtype=np.complex128)
    for start in range(0, flat.shape[1], _BLOCK_COLUMNS):
        cols = slice(start, start + _BLOCK_COLUMNS)
        part, acc = flat[:, cols], out[:, cols]
        term = np.empty_like(acc)
        for k in range(len(index)):
            np.take(part, index[k], axis=0, out=term, mode="clip")   # "raise" would buffer the copy
            term *= coef[k][:, None]
            acc += term
    return out.reshape((m,) * order + batch)


def _complexified(table, n, order):
    """The Wirtinger table of order ``order`` from a real-derivative table (batch axes last).

    It equals the dense contraction ``np.einsum("ap,bq,pq...->ab...", q, q, table)``
    (and its order-3 form) on a C-ordered table, bit for bit: every entry of
    Q (x) Q (x) Q is +-2^-k or +-i 2^-k, so each nonzero term is one exact
    product, a zero term adds +-0, which leaves a nonzero partial sum as it
    is, and a sum that starts from +0 never ends in -0.  So only the nonzero
    terms are added, in the dense sum's lexicographic order.  The result does
    not depend on the table's memory layout (the dense einsum on a
    Fortran-ordered table sums in another order).  A column with a NaN or an
    infinity takes every term, since 0 * inf and 0 * NaN spread a NaN over
    the column there; a table with one takes the dense sum, which equals the
    sparse one on its finite columns.
    """
    if np.isfinite(table).all():
        return _contract(table, n, order, dense=False)
    with np.errstate(invalid="ignore"):
        return _contract(table, n, order, dense=True)


def wirtinger_table(jet, n):
    if jet.m != 2 * n:
        raise ValueError("jet variable count does not match chart dimension")
    q = _wirtinger_matrix(n)
    w1 = w2 = w3 = None
    if jet.order >= 1:
        # one point (matrix @ vector) and a batch (matrix @ matrix) run different BLAS kernels, which
        # can disagree in the sign of a zero: + 0.0 turns -0.0 into +0.0 and leaves every other value
        # as is.  matmul takes the last two axes as the matrix, so a batch of rank 2 or more goes flat
        grad = jet.grad
        w1 = q @ grad + 0.0 if grad.ndim <= 2 else (q @ grad.reshape(2 * n, -1)).reshape(grad.shape) + 0.0
    if jet.order >= 2:
        w2 = _complexified(jet.hess, n, 2)
    if jet.order >= 3:
        w3 = _complexified(jet.third, n, 3)
    return WirtingerTable(n=n, order=jet.order, value=jet.value, w1=w1, w2=w2, w3=w3)


def _expand_multi_index(mi, n, offset):
    dirs = []
    if len(mi) != n:
        raise ValueError(f"multi-index must have length {n}")
    for j, k in enumerate(mi):
        if k < 0:
            raise ValueError("multi-index entries must be nonnegative")
        dirs.extend([offset + j] * int(k))
    return dirs


def wirtinger(jet, a, b):
    """Mixed Wirtinger derivative D^a Dbar^b f(center) from a jet.

    ``a`` and ``b`` are multi-indices over the holomorphic and conjugate
    coordinates; ``|a| + |b|`` must not exceed the jet order.
    """
    n = jet.m // 2
    dirs = _expand_multi_index(a, n, 0) + _expand_multi_index(b, n, n)
    table = wirtinger_table(jet, n)
    return table.d(*dirs)


def complex_hessian(field, z):
    """Hermitian matrix [d^2 f / dz_j dzbar_k] of a real-valued field (to a relative 1e-10)."""
    jet = field.jet(z, 2)
    scale = 1.0 + abs(jet.value)
    if isinstance(jet.value, complex) and abs(jet.value.imag) > 1e-10 * scale:
        raise ValueError(f"complex_hessian requires a real-valued field, got f = {jet.value}")
    table = wirtinger_table(jet, field.n)
    h = table.mixed_hessian
    asym = np.max(np.abs(h - h.conj().T))
    if asym > 1e-10 * (1.0 + np.max(np.abs(h))):
        raise ValueError(f"complex Hessian is not Hermitian (asymmetry {asym:.3e}); field not real")
    return 0.5 * (h + h.conj().T)


def dz_jet(jet, j, n):
    """Jet of d f / dz_j (one order lower than ``jet``)."""
    return (jet.shift(j) - 1j * jet.shift(n + j)) * 0.5
