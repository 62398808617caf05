"""Domain registry: built-in families and user expression-tree domains."""

from __future__ import annotations

import cmath
import math
import numbers
import re
from dataclasses import replace

import numpy as np

from . import expr, jets
from .boundary import DomainSpec
from .fields import ScalarField
from .geometry import resolve_metric
from .worm import WormParams, worm_domain

__all__ = ["REGISTRY_KEYS", "make_domain", "ball_domain", "ellipsoid_domain", "parse_domain_key"]

REGISTRY_KEYS = ("ball", "ellipsoid(a1..an)", "worm(gamma)", "user")


def _dimension(n, given_by):
    """``n`` as an int; raises unless it is an integer >= 2 (NaN and inf fail)."""
    if isinstance(n, bool) or not isinstance(n, (int, float)) or not (n >= 2 and n % 1 == 0):
        raise ValueError(f"n must be an integer >= 2 ({given_by}), got {n!r}")
    return int(n)


def ball_domain(n=2, signed=False, metric="euclidean"):
    """Unit ball in C^n: the unit ellipsoid, or with ``signed=True`` the constant-gradient-norm variant.

    The signed-distance defining function is scaled so that |dr| = 1 in the
    metric convention <d/dz_j, d/dz_k> = delta_jk.  ``metric`` is a spec of
    :func:`~dfindex.geometry.resolve_metric`.
    """
    n = _dimension(n, "ball(n)")
    metric = resolve_metric(metric, n, "ball", {})
    if not signed:
        return replace(ellipsoid_domain([1.0] * n), name="ball", metric=metric)

    def fn(zs):
        s = sum((jets.abs2(w) for w in zs), jets.Jet.constant(0.0, 2 * n, zs[0].order))
        return (jets.sqrt(s) - 1.0) * math.sqrt(2.0)

    return DomainSpec(
        name="ball_sd",
        n=n,
        r=ScalarField(n, fn, name="ball_signed_distance"),
        metric=metric,
        box=np.array([[-1.5, 1.5]] * (2 * n)),
        interior_point=np.full(n, 0.2 + 0.0j),
        params={"signed": signed},
    )


def ellipsoid_domain(axes, metric="euclidean"):
    axes = [float(a) for a in axes]
    if any(a <= 0 for a in axes):
        raise ValueError(f"ellipsoid axes must be positive, got {axes}")
    n = _dimension(len(axes), "the count of ellipsoid axes")
    metric = resolve_metric(metric, n, "ellipsoid", {})
    inv2 = [1.0 / a**2 for a in axes]

    def fn(zs):
        return sum((jets.abs2(w) * c for w, c in zip(zs, inv2)),
                   jets.Jet.constant(-1.0, 2 * n, zs[0].order))

    pad = 1.5 * max(axes)
    return DomainSpec(
        name=f"ellipsoid({','.join(f'{a:g}' for a in axes)})",
        n=n,
        r=ScalarField(n, fn, name="ellipsoid"),
        metric=metric,
        box=np.array([[-pad, pad]] * (2 * n)),
        interior_point=np.zeros(n, dtype=complex),
        params={"axes": axes},
    )


def _interior_point(interior, n):
    """A user domain's interior witness from n numbers or [re, im] pairs of real numbers."""
    def coordinate(c):
        if isinstance(c, (list, tuple)) and len(c) == 2 and all(_is_kind(x, _REAL) for x in c):
            return complex(c[0], c[1])
        if isinstance(c, numbers.Number) and not isinstance(c, bool) and cmath.isfinite(c):
            return complex(c)
        raise ValueError

    try:
        if len(interior) != n:
            raise ValueError
        return np.array([coordinate(c) for c in interior], dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"user domain interior must be {n} numbers or [re, im] pairs, "
                         f"got {interior!r}") from None


def _user_domain(params, metric):
    try:
        n = _dimension(params["n"], "domain_params.n of a user domain")
        tree = params["r"]
        box = np.asarray(params["box"], dtype=float)
        interior = params["interior"]
    except KeyError as missing:
        raise ValueError(f"user domain requires field {missing.args[0]!r} (n, r, box, interior)")
    interior = _interior_point(interior, n)
    if box.shape != (2 * n, 2):
        raise ValueError(f"user chart box must have shape ({2 * n}, 2), got {box.shape}")
    r = expr.build_field(tree, n, name="user_r")
    metric = resolve_metric(metric, n, "user", {})
    return DomainSpec(name="user", n=n, r=r, metric=metric, box=box,
                      interior_point=interior, params=dict(params))


def parse_domain_key(key):
    """Split a registry key like ``worm(3.14)`` into name and numeric args."""
    m = re.fullmatch(r"\s*([a-zA-Z_]+)\s*(?:\(([^)]*)\))?\s*", key)
    if not m:
        raise ValueError(f"malformed domain key {key!r}; known keys: {REGISTRY_KEYS}")
    name = m.group(1).lower()
    args = []
    if m.group(2):
        try:
            args = [float(tok) for tok in m.group(2).split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"malformed domain key {key!r}; known keys: {REGISTRY_KEYS}") from None
    return name, args


_REAL = "a finite real number"
# the params each key reads, each with the kind of value it takes (a user domain checks its own);
# the one its parenthesized numbers give, with the key so written; and how many numbers it reads
# there (ellipsoid reads any count)
_PARAMS = {"ball": {"signed": "a bool"}, "ellipsoid": {},
           "worm": {"t": _REAL, "s": _REAL, "lam_c": _REAL, "lam_p": "an integer"},
           "user": dict.fromkeys(("n", "r", "box", "interior"))}
_KEY_NUMBERS = {"ball": ("n", "ball(n)", 1), "ellipsoid": ("axes", "ellipsoid(a1,..,an)", None),
                "worm": ("gamma", "worm(gamma)", 1), "user": (None, "user", 0)}


def _is_kind(value, kind):
    """Whether ``value`` is of a param kind of ``_PARAMS`` (None: any value); a bool is no number."""
    if kind is None:
        return True
    if kind == "a bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind == "an integer":
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) and math.isfinite(value)


def make_domain(key, metric="euclidean", **params):
    """Instantiate a registered domain.

    ``key`` is one of ``ball`` (n = 2), ``ball(n)``, ``ellipsoid(a1..an)``,
    ``worm(gamma)``, or ``user``; a key's parenthesized numbers are the only
    way to give n, the axes or gamma.  A param the key does not read (those
    numbers included) or more parenthesized numbers than the key reads raise
    ``ValueError``.  ``metric`` is a spec of
    :func:`~dfindex.geometry.resolve_metric`: a metric name the key
    implements ("euclidean" on every key, "worm_kahler" on a worm) or
    ``{"entries": [[tree, ..], ..]}``.
    """
    name, args = parse_domain_key(key) if isinstance(key, str) else (key, [])
    if name not in _PARAMS:
        raise ValueError(f"unknown domain key {key!r}; known keys: {REGISTRY_KEYS}")
    gives, written, count = _KEY_NUMBERS[name]
    unread = [p for p in params if p not in _PARAMS[name]]
    if unread:
        from_key = f"; {gives} comes only from the key, {written}" if gives in unread else ""
        raise ValueError(f"{name} reads no domain param {', '.join(unread)}; it reads "
                         f"{', '.join(_PARAMS[name]) or 'none'}{from_key}")
    if count is not None and len(args) > count:
        raise ValueError(f"{key!r} gives too many numbers: {name} reads {count or 'none'} "
                         f"in parentheses (known keys: {REGISTRY_KEYS})")
    for param, value in params.items():
        if not _is_kind(value, _PARAMS[name][param]):
            raise ValueError(f"{name} domain param {param} must be {_PARAMS[name][param]}, got {value!r}")
    if name == "ball":
        return ball_domain(n=args[0] if args else 2, signed=params.get("signed", False), metric=metric)
    if name == "user":
        return _user_domain(params, metric)
    if not args:
        raise ValueError(f"{name} needs {gives}: {written}")
    if name == "ellipsoid":
        return ellipsoid_domain(args, metric=metric)
    lam = {k: params[k] for k in ("lam_c", "lam_p") if k in params}
    wp = WormParams(gamma=args[0], t=params.get("t"), s=params.get("s"), **lam)
    return worm_domain(wp, metric=metric)
