"""Generalized parallel substitution over the unified syntax.

A substitution is a total map from de Bruijn variables to actions: rename to
another index, or replace with a node. The representation is a finite prefix
of explicit actions plus a uniform tail shift, so substitutions compare equal
when (extensionally) equal on the prefix region and print usefully in test
failures.

Application tracks how many binders it is under instead of lifting the
substitution at each one, and returns any subterm whose loose range
(`syntax.loose_range`, stored on each node) shows no free index it could
touch.

`shift` keeps a memo keyed by the node and the amount, emptied when it
reaches `TABLE_LIMIT` entries. Nodes are hash-consed (see `syntax`), so a
type or telescope rebuilt elsewhere is most often the very object shifted
before, and the key is found by its stored hash and identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .syntax import (
    BINDER, OPEN, PATTERN, SCOPED_FIELDS, TABLE_LIMIT, Node, Pattern, TVar,
    Var, loose_range,
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
    """Adjust `s` for one extra enclosing binder: 0 stays, the rest shifts.
    `apply` tracks binder depth instead; this is kept for the laws."""
    return Subst((Rename(0),) + tuple(_shift_action(a) for a in s.prefix),
                 s.shift)


class ScopeEscape(ValueError):
    """A substitution maps a free index below 0."""


def apply(s: Subst, n: Node) -> Node:
    if not s.prefix and s.shift == 0:
        return n
    return _apply(s, n, 0)


def _apply(s: Subst, n: Node, depth: int) -> Node:
    """`s` applied to `n` under `depth` binders. Indices below `depth` are
    bound inside and stay; index i >= depth is `s`'s action on i - depth,
    a replacement shifted past the `depth` binders. A subterm with no free
    index at or above `depth` is returned as it is."""
    if n._range <= depth:
        return n
    cls = type(n)
    if cls is Var or cls is TVar:
        index = n.index - depth
        a = s.prefix[index] if index < len(s.prefix) else None
        if type(a) is Replace:
            return shift(a.node, depth)
        j = a.index if a is not None else index + s.shift
        if j < 0:
            raise ScopeEscape(f"substitution escapes scope at index {index}")
        return cls(j + depth)
    args = []
    for name, role in SCOPED_FIELDS[cls]:
        x = getattr(n, name)
        if role is OPEN:
            x = _apply(s, x, depth)
        elif role is BINDER:
            x = _apply(s, x, depth + 1)
        elif role is PATTERN:
            x = Pattern(x.head, tuple(_apply(s, t, depth)
                                      for t in x.type_args))
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


_SHIFTED: dict = {}


def shift(n: Node, amount: int) -> Node:
    """Shift all free indices; negative amounts must not strand variables
    (`ScopeEscape` when one would)."""
    if amount == 0 or n._range == 0:
        return n
    key = (n, amount)
    out = _SHIFTED.get(key)
    if out is None:
        out = apply(shift_subst(amount), n)
        if len(_SHIFTED) >= TABLE_LIMIT:
            _SHIFTED.clear()
        _SHIFTED[key] = out
    return out


def instantiate(body: Node, arg: Node) -> Node:
    """Substitute `arg` for index 0 of a binder body, closing the binder."""
    return apply(singleton(arg), body)


def instantiate_all(body: Node, args) -> Node:
    """Close the binders around `body` at once, the outermost with
    `args[0]`: the same as instantiating them one at a time."""
    return apply(Subst(tuple(Replace(a) for a in reversed(args)), -len(args)),
                 body)


def is_closed(n: Node) -> bool:
    return loose_range(n) == 0


def try_unshift(n: Node, amount: int) -> Node | None:
    """Shift down by `amount`, or None when a free index would escape."""
    r = loose_range(n)
    if r == 0:
        return n
    if r <= amount:  # every free index is below `amount`
        return None
    try:
        return shift(n, -amount)
    except ScopeEscape:
        return None
