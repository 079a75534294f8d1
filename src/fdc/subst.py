"""Generalized parallel substitution over the unified syntax.

A substitution is a total map from de Bruijn variables to actions: rename to
another index, or replace with a node. The representation is a finite prefix
of explicit actions plus a uniform tail shift, so substitutions compare equal
when (extensionally) equal on the prefix region and print usefully in test
failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .syntax import (
    BINDER, DATA, FIELDS, KIND, PATTERN, Node, Pattern, TVar, Var,
)


@dataclass(frozen=True)
class Rename:
    index: int


@dataclass(frozen=True)
class Replace:
    node: Node


Action = Union[Rename, Replace]


@dataclass(frozen=True)
class Subst:
    """`prefix[i]` for i < len(prefix); index i maps to i + shift beyond."""

    prefix: tuple[Action, ...] = ()
    shift: int = 0

    def action(self, index: int) -> Action:
        if index < len(self.prefix):
            return self.prefix[index]
        return Rename(index + self.shift)


IDENTITY = Subst()


def shift_subst(amount: int) -> Subst:
    return Subst((), amount)


def singleton(node: Node) -> Subst:
    """[0 -> node], all other indices decremented: beta instantiation."""
    return Subst((Replace(node),), -1)


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


def compose(s1: Subst, s2: Subst) -> Subst:
    """apply(compose(s1, s2), n) == apply(s2, apply(s1, n))."""
    length = max(len(s1.prefix), len(s2.prefix) - s1.shift, 0)
    prefix = []
    for i in range(length):
        match s1.action(i):
            case Rename(j):
                prefix.append(s2.action(j) if j >= 0 else Rename(j))
            case Replace(n):
                prefix.append(Replace(apply(s2, n)))
    return Subst(tuple(prefix), s1.shift + s2.shift)


def shift(n: Node, amount: int) -> Node:
    """Shift all free indices; negative amounts must not strand variables."""
    if amount == 0:
        return n
    return apply(shift_subst(amount), n)


def instantiate(body: Node, arg: Node) -> Node:
    """Substitute `arg` for index 0 of a binder body, closing the binder."""
    return apply(singleton(arg), body)


def min_free_index(n: Node) -> int:
    """Smallest free de Bruijn index in `n` (large sentinel when closed)."""
    best = 1 << 60
    stack = [(n, 0)]
    while stack:
        m, depth = stack.pop()
        cls = type(m)
        if (cls is Var or cls is TVar) and m.index >= depth:
            best = min(best, m.index - depth)
        for name, role in _SUBST_FIELDS.get(cls, ()):
            x = getattr(m, name)
            if role is PATTERN:
                stack.extend((t, depth) for t in x.type_args)
            elif role is not KIND:
                stack.append((x, depth + 1 if role is BINDER else depth))
    return best


def is_closed(n: Node) -> bool:
    return min_free_index(n) >= (1 << 60)


def try_unshift(n: Node, amount: int) -> Node | None:
    """Shift down by `amount`, or None when a free index would escape."""
    if amount == 0:
        return n
    if min_free_index(n) < amount:
        return None
    return shift(n, -amount)
