"""Truncated multivariate Taylor (jet) arithmetic through third order.

A :class:`Jet` carries the value of a scalar quantity together with all of
its partial derivatives through a requested order (at most 3) with respect
to ``m`` real variables.  Sums, products, quotients, and compositions with
analytic kernels (exp, log, trig, powers) propagate the derivative arrays
exactly; no finite differencing is involved anywhere.

A jet holds one point or a batch of points, with the batch axes placed
last: the value has shape ``S``, ``grad`` has shape ``(m, *S)``, ``hess``
``(m, m, *S)`` and ``third`` ``(m, m, m, *S)``, and ``S = ()`` for one
point.  Every ring operation and kernel is written once for both: the
products broadcast over the trailing batch axes, the symmetrizations act on
the leading derivative axes only, and each column of a batch is
bit-identical to the same computation on that point alone.  A one-point jet
(a constant, say) combines with a batch by broadcasting.  A branch on the
value goes through :func:`branch`, which runs each side on its own columns;
a plain ``if`` on a batch value raises.

Two structural guarantees matter downstream and are enforced here rather
than asserted after the fact:

* Derivative arrays are exactly symmetric under index permutations.  Rank-2
  and rank-3 results are canonicalized so that permuted index pairs and
  triples share the identical float: the product rule's outer products
  grad a grad b^T and grad b grad a^T are only symmetric as a pair, and the
  sum rounds differently at (i, j) and (j, i).
* Evaluation is pure.  Re-running the same operation sequence produces
  bit-identical arrays.

Complex values are supported throughout: the *variables* are always real,
so conjugation of a jet is conjugation of its arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

MAX_ORDER = 3


class JetOrderError(ValueError):
    """Requested derivative order is outside what a jet carries."""


def _zeros(shape, value):
    """Zeros of the type of a (normalized) jet value."""
    is_complex = value.dtype == np.complex128 if isinstance(value, np.ndarray) \
        else type(value) is complex
    return np.zeros(shape, dtype=np.complex128 if is_complex else np.float64)


def _any(mask):
    """Truth of a scalar test, or of any element of a batch test."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _first(value, mask):
    """The offending value of a one-point or batch guard, for its message."""
    return value[mask].flat[0] if isinstance(mask, np.ndarray) else value


def _mapped(fn, v, *args):
    """``fn(v, *args)`` for a scalar ``v``; for a batch, ``fn`` mapped over its elements.

    The elements go to ``fn`` as Python scalars (``args`` repeat for each), so
    kernels whose scalar functions (``math.log``, ``pow``, complex division)
    differ from their NumPy array versions in the last bit give a batch
    column equal to the one-point result.
    """
    if not isinstance(v, np.ndarray):
        return fn(v, *args)
    return np.array(list(map(fn, v.ravel().tolist(), *map(itertools.repeat, args)))).reshape(v.shape)


def _div(a, b):
    """``a / b`` as Python divides scalars, for a batch ``b`` too.

    A real batch divides as an array (IEEE division rounds alike) but raises
    ``ZeroDivisionError`` on a zero divisor as Python does; a complex batch
    goes through Python's own complex division, element by element.
    """
    if not isinstance(b, np.ndarray):
        return a / b
    if b.dtype == np.complex128:
        return _mapped(complex.__rtruediv__, b, a)
    if not b.all():
        raise ZeroDivisionError("float division by zero")
    return a / b


def _vmul(x, y):
    """``x * y`` for batch values; a complex product rounds as the scalar one does.

    NumPy's complex array product may fuse a multiply and an add, Python's
    scalar product does not, so a batch of complex products is built from
    its real and imaginary parts.
    """
    if np.iscomplexobj(x) and np.iscomplexobj(y):
        xr, xi, yr, yi = np.real(x), np.imag(x), np.real(y), np.imag(y)
        out = np.empty(np.broadcast(x, y).shape, dtype=np.complex128)
        out.real = xr * yr - xi * yi
        out.imag = xr * yi + xi * yr
        return out
    return x * y


@functools.cache
def _canon2_indices(m):
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.minimum(i, j), np.maximum(i, j)


@functools.cache
def _canon3_indices(m):
    i, j, k = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
    s = np.sort(np.stack([i, j, k]), axis=0)
    return s[0], s[1], s[2]


def _canon2(arr):
    i, j = _canon2_indices(arr.shape[0])
    return arr[i, j]


def _canon3(arr):
    i, j, k = _canon3_indices(arr.shape[0])
    return arr[i, j, k]


class Jet:
    """Value plus derivative arrays through ``order`` in ``m`` real variables.

    ``shape`` is the batch shape ``S`` (``()`` for one point); the derivative
    arrays carry it as trailing axes.
    """

    __slots__ = ("m", "order", "shape", "value", "grad", "hess", "third")

    def __init__(self, m, order, value, grad=None, hess=None, third=None):
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.m = m
        self.order = order
        self.shape = ()
        if type(value) is not float and type(value) is not complex:
            if isinstance(value, np.ndarray) and value.ndim:
                if value.dtype != np.complex128 and value.dtype != np.float64:
                    value = value.astype(np.complex128 if np.iscomplexobj(value) else np.float64)
                self.shape = value.shape
            else:
                value = complex(value) if np.iscomplexobj(np.asarray(value)) else float(value)
        self.value = value
        self.grad = grad if order >= 1 else None
        self.hess = hess if order >= 2 else None
        self.third = third if order >= 3 else None
        if order >= 1 and self.grad is None:
            self.grad = _zeros((m,) + self.shape, value)
        if order >= 2 and self.hess is None:
            self.hess = _zeros((m, m) + self.shape, value)
        if order >= 3 and self.third is None:
            self.third = _zeros((m, m, m) + self.shape, value)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value, m, order):
        return cls(m, order, value)

    @classmethod
    def variable(cls, value, index, m, order):
        """Seed jet of the ``index``-th real coordinate at ``value`` (a point or a batch)."""
        jet = cls(m, order, value)
        if order >= 1:
            grad = np.zeros((m,) + jet.shape)
            grad[index] = 1.0
            jet.grad = grad
        return jet

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def broadcast(self, shape):
        """This jet over the batch shape ``shape``; a one-point jet is repeated (as views)."""
        if self.shape == shape:
            return self
        if self.shape:
            raise ValueError(f"jets over different batch shapes {self.shape} and {shape}")
        lift = (None,) * len(shape)

        def rep(a):
            return None if a is None else np.broadcast_to(a[(...,) + lift], a.shape + shape)

        return Jet(self.m, self.order, np.broadcast_to(self.value, shape),
                   rep(self.grad), rep(self.hess), rep(self.third))

    def take(self, mask):
        """The columns of a batch jet where the boolean ``mask`` (batch shape) holds."""

        def pick(a):
            return None if a is None else a[..., mask]

        return Jet(self.m, self.order, self.value[mask],
                   pick(self.grad), pick(self.hess), pick(self.third))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _coerce(self, other):
        """``(self, other)`` as jets over one batch shape, or NotImplemented."""
        if isinstance(other, Jet):
            if other.m != self.m:
                raise ValueError("jets over different variable counts")
        elif isinstance(other, (numbers.Number, np.number)):
            other = Jet.constant(other, self.m, self.order)
        else:
            return NotImplemented
        if other.shape == self.shape:
            return self, other
        shape = self.shape or other.shape
        return self.broadcast(shape), other.broadcast(shape)

    def conj(self):
        return Jet(
            self.m,
            self.order,
            np.conj(self.value),
            None if self.grad is None else np.conj(self.grad),
            None if self.hess is None else np.conj(self.hess),
            None if self.third is None else np.conj(self.third),
        )

    def real(self):
        return 0.5 * (self + self.conj())

    def imag(self):
        return (-0.5j) * (self - self.conj())

    def shift(self, i):
        """Jet of the partial derivative with respect to real variable ``i``.

        Drops one order: derivatives of order ``k`` of the shifted jet are
        order ``k + 1`` derivatives of the original.
        """
        if self.order < 1:
            raise JetOrderError("cannot shift an order-0 jet")
        return Jet(
            self.m,
            self.order - 1,
            self.grad[i],
            None if self.hess is None else self.hess[i].copy(),
            None if self.third is None else self.third[i].copy(),
            None,
        )

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def __add__(self, other):
        if not (isinstance(other, Jet) and other.shape == self.shape and other.m == self.m):
            pair = self._coerce(other)
            return pair if pair is NotImplemented else pair[0] + pair[1]
        order = min(self.order, other.order)
        return Jet(
            self.m,
            order,
            self.value + other.value,
            self.grad + other.grad if order >= 1 else None,
            self.hess + other.hess if order >= 2 else None,
            self.third + other.third if order >= 3 else None,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.m,
            self.order,
            -self.value,
            None if self.grad is None else -self.grad,
            None if self.hess is None else -self.hess,
            None if self.third is None else -self.third,
        )

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not (isinstance(other, Jet) and other.shape == self.shape and other.m == self.m):
            if isinstance(other, (numbers.Number, np.number)):
                return Jet(
                    self.m,
                    self.order,
                    _vmul(other, self.value) if self.shape else other * self.value,
                    None if self.grad is None else other * self.grad,
                    None if self.hess is None else other * self.hess,
                    None if self.third is None else other * self.third,
                )
            pair = self._coerce(other)
            return pair if pair is NotImplemented else pair[0] * pair[1]
        a, b = self, other
        order = min(a.order, b.order)
        value = _vmul(a.value, b.value) if a.shape else a.value * b.value
        grad = hess = third = None
        if order >= 1:
            grad = a.value * b.grad + b.value * a.grad
        if order >= 2:
            hess = (
                a.value * b.hess
                + b.value * a.hess
                + a.grad[:, None] * b.grad[None]
                + b.grad[:, None] * a.grad[None]
            )
            hess = _canon2(hess)
        if order >= 3:
            cross = (a.hess[:, :, None] * b.grad[None, None]
                     + b.hess[:, :, None] * a.grad[None, None])
            cross = cross + cross.swapaxes(1, 2) + cross.swapaxes(0, 2)
            third = _canon3(a.value * b.third + b.value * a.third + cross)
        return Jet(self.m, order, value, grad, hess, third)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (numbers.Number, np.number)):
            return self * (1.0 / other)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        return pair[0] * pair[1].reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
            p = int(p)
            if p < 0:
                return (self ** (-p)).reciprocal()
            result = Jet.constant(1.0, self.m, self.order)
            base = self
            while p:
                if p & 1:
                    result = result * base
                base = base * base
                p >>= 1
            return result
        return power(self, p)

    def reciprocal(self):
        v = self.value
        zero = v == 0
        if _any(zero):
            raise ZeroDivisionError("reciprocal of a jet with zero value")
        return self.compose([_div(1.0, v), _div(-1.0, _mapped(pow, v, 2)), _div(2.0, _mapped(pow, v, 3)),
                             _div(-6.0, _mapped(pow, v, 4))])

    # ------------------------------------------------------------------
    # composition with a univariate analytic kernel
    # ------------------------------------------------------------------
    def compose(self, derivs):
        """Jet of ``phi(self)`` given ``derivs = [phi(v), phi'(v), ...]`` at ``v = self.value``."""
        if len(derivs) < self.order + 1:
            raise JetOrderError("not enough kernel derivatives for composition")
        d0 = derivs[0]
        grad = hess = third = None
        if self.order >= 1:
            d1 = derivs[1]
            grad = d1 * self.grad
        if self.order >= 2:
            d2 = derivs[2]
            g = self.grad
            hess = _canon2(d2 * (g[:, None] * g[None]) + d1 * self.hess)
        if self.order >= 3:
            d3 = derivs[3]
            h = self.hess
            cube = (g[:, None] * g[None])[:, :, None] * g[None, None]
            cross = h[:, :, None] * g[None, None]
            cross = cross + cross.swapaxes(1, 2) + cross.swapaxes(0, 2)
            third = _canon3(d3 * cube + d2 * cross + d1 * self.third)
        return Jet(self.m, self.order, d0, grad, hess, third)


def branch(cond, on_true, on_false, x):
    """``on_true(x)`` where ``cond`` holds and ``on_false(x)`` elsewhere.

    ``cond`` is a bool for a one-point jet and a bool array of the batch
    shape for a batch.  ``x`` is a Jet or a list or tuple of them (nested at
    will); each side runs only on its own columns, so it may rely on its
    condition, and keeps the dtypes its points have alone.  Its result (a
    Jet or a list or tuple of them, nested alike, possibly one-point
    constants) is merged column by column.
    """
    if not isinstance(cond, np.ndarray):
        return on_true(x) if cond else on_false(x)
    if cond.all():
        return on_true(x)
    if not cond.any():
        return on_false(x)
    return _merge(cond, on_true(_take(x, cond)), on_false(_take(x, ~cond)))


def _take(x, mask):
    if isinstance(x, Jet):
        return x.take(mask) if x.shape else x
    return [_take(part, mask) for part in x]


def _merge(cond, hit, miss):
    if not isinstance(hit, Jet):
        return type(hit)(_merge(cond, h, f) for h, f in zip(hit, miss))
    order = min(hit.order, miss.order)

    def put(rank, a, b):
        if rank > order:
            return None
        out = np.empty((hit.m,) * rank + cond.shape, dtype=np.result_type(a, b))
        out[..., cond] = a if hit.shape else np.asarray(a)[..., None]
        out[..., ~cond] = b if miss.shape else np.asarray(b)[..., None]
        return out

    return Jet(hit.m, order, put(0, hit.value, miss.value), put(1, hit.grad, miss.grad),
               put(2, hit.hess, miss.hess), put(3, hit.third, miss.third))


# ----------------------------------------------------------------------
# analytic kernels
# ----------------------------------------------------------------------

def _real_value(jet, what):
    v = jet.value
    if isinstance(v, complex) or (isinstance(v, np.ndarray) and v.dtype == np.complex128):
        bad = abs(v.imag) > 1e-12 * (1.0 + abs(v.real))
        if _any(bad):
            raise ValueError(f"{what} requires a real-valued jet, got value {_first(v, bad)}")
        return v.real
    return v


def exp(jet):
    e = np.exp(jet.value)
    return jet.compose([e, e, e, e])


def log(jet):
    v = _real_value(jet, "log")
    bad = v <= 0
    if _any(bad):
        raise ValueError(f"log requires a positive value, got {_first(v, bad)}")
    return jet.compose([_mapped(math.log, v), _div(1.0, v), _div(-1.0, _mapped(pow, v, 2)),
                        _div(2.0, _mapped(pow, v, 3))])


def sin(jet):
    s, c = np.sin(jet.value), np.cos(jet.value)
    return jet.compose([s, c, -s, -c])


def cos(jet):
    s, c = np.sin(jet.value), np.cos(jet.value)
    return jet.compose([c, -s, -c, s])


def tan(jet):
    return sin(jet) / cos(jet)


def tanh(jet):
    t = np.tanh(_real_value(jet, "tanh"))
    d1 = 1.0 - t * t
    return jet.compose([t, d1, -2.0 * t * d1, -2.0 * d1 * (1.0 - 3.0 * t * t)])


def power(jet, p):
    """``jet ** p`` for real exponent ``p``; requires a positive real value."""
    v = _real_value(jet, "power")
    bad = v <= 0
    if _any(bad):
        raise ValueError(f"real power requires a positive value, got {_first(v, bad)}")
    return jet.compose([_mapped(pow, v, p), p * _mapped(pow, v, p - 1),
                        p * (p - 1) * _mapped(pow, v, p - 2), p * (p - 1) * (p - 2) * _mapped(pow, v, p - 3)])


def sqrt(jet):
    return power(jet, 0.5)


def abs2(jet):
    """|w|^2 as a jet; exact-real for any complex-valued jet."""
    return jet * jet.conj()
