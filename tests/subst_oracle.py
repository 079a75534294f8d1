"""Reference substitution, kept as the differential oracle for `fdc.subst`.

These are the original walkers: `apply` rebuilds every node it visits,
closed subterms included, and lifts the substitution at each binder (so a
replacement is shifted once per binder it passes), and `try_unshift` finds
the smallest free index with its own walk before it shifts. They share only
the substitution representation (`Subst`, `Rename`, `Replace`) and the field
table with the code under test.

One known difference: lifting adds one to every renamed index, a negative
one too, so a variable that escapes its scope under a binder is captured
here instead of raising. Compare the two only on
substitutions that strand no variable.
"""

from __future__ import annotations

from fdc.subst import (
    IDENTITY, Action, Rename, Replace, Subst, shift_subst, singleton,
)
from fdc.syntax import (
    BINDER, DATA, FIELDS, KIND, PATTERN, Node, Pattern, TVar, Var,
)


def _shift_action(a: Action) -> Action:
    match a:
        case Rename(i):
            return Rename(i + 1)
        case Replace(n):
            return Replace(shift(n, 1))
    raise TypeError(a)


def lift(s: Subst) -> Subst:
    """Adjust `s` for one extra enclosing binder: 0 stays, the rest shifts."""
    return Subst((Rename(0),) + tuple(_shift_action(a) for a in s.prefix),
                 s.shift)


def apply(s: Subst, n: Node) -> Node:
    if s == IDENTITY:
        return n
    return _apply(s, n)


def _resolve(s: Subst, index: int, make_var) -> Node:
    match s.action(index):
        case Rename(j):
            if j < 0:
                raise ValueError(f"substitution escapes scope at index {index}")
            return make_var(j)
        case Replace(node):
            return node
    raise TypeError


# The classes with a position that substitution enters; the others (leaves,
# and `KArr`, whose fields are all kinds) are returned as they are.
_SUBST_FIELDS = {cls: shape for cls, shape in FIELDS.items()
                 if any(role not in (KIND, DATA) for _, role in shape)}


def _apply(s: Subst, n: Node) -> Node:
    cls = type(n)
    if cls is Var or cls is TVar:
        return _resolve(s, n.index, cls)
    shape = _SUBST_FIELDS.get(cls)
    if shape is None:
        return n
    args = []
    for name, role in shape:
        x = getattr(n, name)
        if role is PATTERN:
            x = Pattern(x.head, tuple(_apply(s, t) for t in x.type_args))
        elif role is not KIND:
            x = _apply(lift(s) if role is BINDER else s, x)
        args.append(x)
    return cls(*args)


def shift(n: Node, amount: int) -> Node:
    if amount == 0:
        return n
    return apply(shift_subst(amount), n)


def instantiate(body: Node, arg: Node) -> Node:
    return apply(singleton(arg), body)


def free_indices(n: Node) -> set[int]:
    """Every free de Bruijn index of `n`, by a plain walk."""
    out = set()
    stack = [(n, 0)]
    while stack:
        m, depth = stack.pop()
        cls = type(m)
        if (cls is Var or cls is TVar) and m.index >= depth:
            out.add(m.index - depth)
        for name, role in _SUBST_FIELDS.get(cls, ()):
            x = getattr(m, name)
            if role is PATTERN:
                stack.extend((t, depth) for t in x.type_args)
            elif role is not KIND:
                stack.append((x, depth + 1 if role is BINDER else depth))
    return out


def try_unshift(n: Node, amount: int) -> Node | None:
    if amount == 0:
        return n
    if min(free_indices(n), default=1 << 60) < amount:
        return None
    return shift(n, -amount)
