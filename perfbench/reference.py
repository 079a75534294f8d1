"""Answers the benchmark checks the program against, computed in plain
Python from the generated inputs and never by the code under test."""

from __future__ import annotations

import dataclasses
from functools import reduce
from operator import xor


def not_chain(depth: int, leaf: bool) -> bool:
    """`not (not (... leaf))` with `depth` applications."""
    return leaf if depth % 2 == 0 else not leaf


def xor_fold(bits: list[bool]) -> bool:
    """`xor b1 (xor b2 (... bn))`."""
    return reduce(xor, bits)


# The corpus methods, read off superclasses.hsk and fundeps.hsk:
# lt b c = or (not b) c, eq b c = not (xor b c), lte = or (lt x y) (eq x y),
# and f [Bool] d = not.
CORPUS_CALLS = {
    "lte": lambda x, y: ((not x) or y) or (x == y),
    "eq": lambda x, y: x == y,
    "f": lambda b: not b,
}


def constructor_names(node) -> set[str]:
    """Class names of every syntax node below `node`, found by walking the
    dataclass fields."""
    seen: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, tuple):
            stack.extend(cur)
        elif dataclasses.is_dataclass(cur):
            seen.add(type(cur).__name__)
            stack.extend(getattr(cur, f.name) for f in dataclasses.fields(cur))
    return seen


def zero_free(node) -> bool:
    """No guard, zero or reference anywhere: the shape acceptance 7 demands
    of a specialized call."""
    return not constructor_names(node) & {"Guard", "Zero", "Ref"}


def collapse(node):
    """Collapse choice trees whose two sides are equal to their leaf."""
    if type(node).__name__ != "Choice":
        return node
    left, right = collapse(node.left), collapse(node.right)
    return left if left == right else dataclasses.replace(
        node, left=left, right=right)
