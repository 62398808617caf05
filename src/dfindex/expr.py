"""JSON expression trees for user-supplied scalar fields.

The grammar accepted at the CLI boundary is closed-form so that order-3 jets
are always available.  A node is an object ``{"op": ..., ...}`` with ops:

==========  =========================================================
op          payload
==========  =========================================================
``const``   ``value``: number, or ``[re, im]`` for a complex constant
``coord``   ``index``: 0-based complex coordinate z_index
``add``     ``args``: list of nodes (n-ary sum); ``+`` in the grammar
``mul``     ``args``: list of nodes (n-ary product)
``pow``     ``base``: node, ``exponent``: number (int, or real with
            positive real base)
``exp``     ``arg``
``log``     ``arg``  (real positive values only)
``sin``     ``arg``
``cos``     ``arg``
``tan``     ``arg``
``abs2``    ``arg``  (squared modulus)
``re``      ``arg``
``im``      ``arg``
==========  =========================================================

Numbers are parsed by ``json`` into IEEE doubles, so a given document always
reproduces the identical field.
"""

from __future__ import annotations

import json
import numbers

from . import jets
from .fields import ScalarField

__all__ = ["ExprError", "build_field", "field_from_json", "validate_tree"]

_UNARY = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "abs2": jets.abs2,
    "re": lambda j: j.real(),
    "im": lambda j: j.imag(),
}

_OPS = {"const", "coord", "add", "mul", "pow"} | set(_UNARY)


class ExprError(ValueError):
    """Malformed expression tree."""


def _check_node(node, n, path):
    if not isinstance(node, dict):
        raise ExprError(f"{path}: node must be an object, got {type(node).__name__}")
    op = node.get("op")
    if op not in _OPS:
        raise ExprError(f"{path}: unknown op {op!r}; valid ops: {sorted(_OPS)}")
    if op == "const":
        v = node.get("value")
        ok = isinstance(v, numbers.Real) or (
            isinstance(v, list) and len(v) == 2 and all(isinstance(c, numbers.Real) for c in v)
        )
        if not ok:
            raise ExprError(f"{path}: const value must be a number or [re, im], got {v!r}")
    elif op == "coord":
        idx = node.get("index")
        if not isinstance(idx, numbers.Integral) or not 0 <= idx < n:
            raise ExprError(f"{path}: coord index must be an integer in 0..{n - 1}, got {idx!r}")
    elif op in ("add", "mul"):
        args = node.get("args")
        if not isinstance(args, list) or not args:
            raise ExprError(f"{path}: {op} needs a nonempty 'args' list")
        for i, child in enumerate(args):
            _check_node(child, n, f"{path}.args[{i}]")
    elif op == "pow":
        if "base" not in node or not isinstance(node.get("exponent"), numbers.Real):
            raise ExprError(f"{path}: pow needs 'base' node and numeric 'exponent'")
        _check_node(node["base"], n, f"{path}.base")
    else:
        if "arg" not in node:
            raise ExprError(f"{path}: {op} needs an 'arg' node")
        _check_node(node["arg"], n, f"{path}.arg")


def validate_tree(tree, n):
    _check_node(tree, n, "$")
    return tree


def _eval(node, zs):
    op = node["op"]
    if op == "const":
        v = node["value"]
        value = complex(v[0], v[1]) if isinstance(v, list) else float(v)
        return jets.Jet.constant(value, zs[0].m, zs[0].order)
    if op == "coord":
        return zs[node["index"]]
    if op == "add":
        out = _eval(node["args"][0], zs)
        for child in node["args"][1:]:
            out = out + _eval(child, zs)
        return out
    if op == "mul":
        out = _eval(node["args"][0], zs)
        for child in node["args"][1:]:
            out = out * _eval(child, zs)
        return out
    if op == "pow":
        base = _eval(node["base"], zs)
        p = node["exponent"]
        if isinstance(p, numbers.Integral) or float(p).is_integer():
            return base ** int(p)
        return jets.power(base, float(p))
    return _UNARY[op](_eval(node["arg"], zs))


def build_field(tree, n, name="user"):
    """Compile a validated expression tree into a :class:`ScalarField`."""
    validate_tree(tree, n)

    def fn(zs):
        return _eval(tree, zs)

    return ScalarField(n, fn, name=name)


def field_from_json(text, n):
    return build_field(json.loads(text), n)
