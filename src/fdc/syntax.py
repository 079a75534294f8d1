"""Unified abstract syntax: kinds, types, terms (incl. coercions), patterns,
declarations, and environments.

One merged node family covers every syntactic category; which judgment a node
belongs to (kinding vs typing) is decided by the checker, not the grammar.
Variables bound by `Forall`/`Lam`/`TyLam`/`Univ` are de Bruijn indices into a
single shared telescope; declared constants (type constants, constructors,
open functions, lets) are strings resolved against the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Optional, Union


class Node:
    """Base class for all syntax nodes."""

    __slots__ = ()


# Annotations that mark a field as a binder body or a kind (see `FIELDS`).
Body = Kind = Node


# ---------------------------------------------------------------- kinds

@dataclass(frozen=True)
class Star(Node):
    """Kind of inhabited types: `*`."""


@dataclass(frozen=True)
class KArr(Node):
    """Kind of type constructors: `k1 -> k2`."""

    left: Kind
    right: Kind


STAR = Star()


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class TVar(Node):
    """De Bruijn type variable."""

    index: int


@dataclass(frozen=True)
class TCon(Node):
    """Named type constant (closed or open)."""

    name: str


@dataclass(frozen=True)
class TApp(Node):
    """Type application. `a -> b` is sugar for `TApp(TApp(TCon('->'), a), b)`."""

    fun: Node
    arg: Node


@dataclass(frozen=True)
class EqTy(Node):
    """Coercion type `lhs ~[kind] rhs`."""

    lhs: Node
    rhs: Node
    kind: Kind


@dataclass(frozen=True)
class Forall(Node):
    """Universally quantified type; binds one type variable."""

    kind: Kind
    body: Body


ARROW = TCon("->")


def arrow(dom: Node, cod: Node) -> Node:
    return TApp(TApp(ARROW, dom), cod)


def un_arrow(ty: Node) -> Optional[tuple[Node, Node]]:
    """Return (dom, cod) when `ty` is arrow-sugar, else None."""
    match ty:
        case TApp(TApp(TCon("->"), dom), cod):
            return dom, cod
    return None


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Var(Node):
    """De Bruijn term variable."""

    index: int


@dataclass(frozen=True)
class Con(Node):
    """Constructor constant (closed or open data)."""

    name: str


@dataclass(frozen=True)
class Ref(Node):
    """Reference to an open function or a let binding, by name."""

    name: str


@dataclass(frozen=True)
class Lam(Node):
    """Term abstraction; the annotation is the bound variable's type."""

    ann: Node
    body: Body


@dataclass(frozen=True)
class App(Node):
    fun: Node
    arg: Node


@dataclass(frozen=True)
class TyLam(Node):
    """Type abstraction; binds one type variable of the given kind."""

    kind: Kind
    body: Body


@dataclass(frozen=True)
class TyApp(Node):
    """Type application of a term: `M [t]`."""

    fun: Node
    arg: Node


@dataclass(frozen=True)
class Cast(Node):
    """`M |> h` — cast the subject by a coercion."""

    subject: Node
    coercion: Node


@dataclass(frozen=True)
class Pattern:
    """Constructor pattern `K [t1] ... [tn]` (type arguments only)."""

    head: str
    type_args: tuple[Node, ...] = ()


@dataclass(frozen=True)
class If(Node):
    """Pattern match over a closed data type, with an else branch."""

    scrut: Node
    pat: Pattern
    cons: Node
    alt: Node


@dataclass(frozen=True)
class Guard(Node):
    """Pattern match over an open data type; a miss reduces to zero."""

    scrut: Node
    pat: Pattern
    cons: Node


@dataclass(frozen=True)
class Zero(Node):
    """The failure element; inhabits every type, never a value."""


@dataclass(frozen=True)
class Choice(Node):
    """Nondeterministic choice between two alternatives."""

    left: Node
    right: Node


ZERO = Zero()


# ------------------------------------------------------------- coercions

@dataclass(frozen=True)
class Refl(Node):
    """`refl(t)` — the only closed coercion value (up to choice trees)."""

    type: Node


@dataclass(frozen=True)
class Sym(Node):
    arg: Node


@dataclass(frozen=True)
class Trans(Node):
    """`h ;; k` — transitivity."""

    left: Node
    right: Node


@dataclass(frozen=True)
class CApp(Node):
    """`h @ k` — congruence at a type application."""

    left: Node
    right: Node


@dataclass(frozen=True)
class Fst(Node):
    """`h .1` — head projection of an application coercion."""

    arg: Node


@dataclass(frozen=True)
class Snd(Node):
    """`h .2` — argument projection of an application coercion."""

    arg: Node


@dataclass(frozen=True)
class Univ(Node):
    """`forallc t:k. h` — congruence under a quantifier; binds one type var."""

    kind: Kind
    body: Body


@dataclass(frozen=True)
class CInst(Node):
    """`h @[t]` — instantiation of a quantified coercion."""

    coercion: Node
    type: Node


@dataclass(frozen=True)
class Sim(Node):
    """`sim(h, k)` — congruence at a coercion type."""

    left: Node
    right: Node


def _cache_hash(cls: type) -> None:
    """Keep the dataclass's structural hash, computed once per node and
    stored on it; equality stays structural. Nodes are immutable, so the
    stored value never goes stale, and a parent's hash reuses its
    children's instead of walking the whole tree."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__


# Per node class, its dataclass fields in order, each with its role, read
# off its annotation: an open position (`Node`); a binder body (`Body`), one
# telescope slot deeper; a closed kind (`Kind`: no variable or reference); a
# pattern, whose type arguments are open positions; or data (index, name).
OPEN, BINDER, KIND, PATTERN, DATA = "open", "binder", "kind", "pattern", "data"
_ROLES = {"Node": OPEN, "Body": BINDER, "Kind": KIND, "Pattern": PATTERN}
FIELDS: dict[type, tuple[tuple[str, str], ...]] = {}

for _cls in Node.__subclasses__():
    _cache_hash(_cls)
    _cls._range = None  # see `loose_range`
    FIELDS[_cls] = tuple((f.name, _ROLES.get(f.type, DATA))
                         for f in fields(_cls))

# The classes with a position a variable can occur in; the others (leaves,
# and `KArr`, whose fields are all kinds) are closed.
SCOPED_FIELDS = {cls: shape for cls, shape in FIELDS.items()
                 if any(role not in (KIND, DATA) for _, role in shape)}


def loose_range(n: Node) -> int:
    """1 + the largest free de Bruijn index of `n`, or 0 when `n` is closed.
    Computed on first use from the children's ranges and stored on the node
    beside its hash; a variable's is read off its index."""
    r = n._range
    if r is not None:
        return r
    cls = type(n)
    if cls is Var or cls is TVar:
        return n.index + 1
    r = 0
    for name, role in SCOPED_FIELDS.get(cls, ()):
        x = getattr(n, name)
        if role is OPEN:
            v = loose_range(x)
        elif role is BINDER:
            v = loose_range(x) - 1
        elif role is PATTERN:
            v = max(map(loose_range, x.type_args), default=0)
        else:
            continue
        if v > r:
            r = v
    object.__setattr__(n, "_range", r)
    return r


# ----------------------------------------------------------- declarations

class Decl:
    __slots__ = ()


@dataclass(frozen=True)
class DataDecl(Decl):
    name: str
    kind: Node


@dataclass(frozen=True)
class CtorDecl(Decl):
    name: str
    type: Node


@dataclass(frozen=True)
class OpenTypeDecl(Decl):
    name: str
    kind: Node


@dataclass(frozen=True)
class OpenCtorDecl(Decl):
    name: str
    type: Node


@dataclass(frozen=True)
class MethodDecl(Decl):
    name: str
    type: Node


@dataclass(frozen=True)
class InstanceDecl(Decl):
    """An instance of the open function `name`."""

    name: str
    body: Node


@dataclass(frozen=True)
class LetDecl(Decl):
    name: str
    type: Node
    body: Node


# ----------------------------------------------------------- environments

@dataclass(frozen=True)
class TyVarBind:
    kind: Node


@dataclass(frozen=True)
class TmVarBind:
    type: Node


BINDERS = (TyVarBind, TmVarBind)

ARROW_KIND = KArr(STAR, KArr(STAR, STAR))

# The namespace each declaration's name is indexed under.
_NAMESPACE = {DataDecl: "type", OpenTypeDecl: "type", CtorDecl: "ctor",
              OpenCtorDecl: "ctor", MethodDecl: "method", LetDecl: "let",
              InstanceDecl: "instances"}


def _extend(binders: tuple, index: dict, entries) -> tuple[tuple, dict]:
    """The binder tuple and name index after `entries`. The index is copied
    before its first change, so pushing binders alone shares it."""
    copied = False
    for e in entries:
        if isinstance(e, BINDERS):
            binders += (e,)
            continue
        if not copied:
            index, copied = dict(index), True
        key = (_NAMESPACE[type(e)], e.name)
        if isinstance(e, InstanceDecl):
            index[key] = index.get(key, ()) + (e.body,)
            continue
        index[key] = e
        if isinstance(e, (CtorDecl, OpenCtorDecl)):
            head = spine_head(split_ctor_type(e.type)[2])
            if isinstance(head, TCon):
                key = ("ctors_of", head.name)
                index[key] = index.get(key, ()) + (e,)
    return binders, index


class Env:
    """Ordered scope: the checked declarations and the binders above them,
    with `(->)` pre-seeded.

    `binders` is the de Bruijn telescope, innermost last. `index` maps
    (namespace, name) to the last declaration of that name, ("instances",
    f) to f's instance bodies and ("ctors_of", T) to the constructors whose
    codomain head is T, both in scope order. Treated as immutable: `push`
    returns a new Env; pushing a binder shares its parent's index, pushing
    a declaration extends a copy.
    """

    __slots__ = ("entries", "binders", "index")

    def __init__(self, entries: tuple = (DataDecl("->", ARROW_KIND),)):
        self.entries = entries
        self.binders, self.index = _extend((), {}, entries)

    def push(self, *new) -> "Env":
        env = object.__new__(Env)
        env.entries = self.entries + new
        env.binders, env.index = _extend(self.binders, self.index, new)
        return env

    # -- de Bruijn telescope

    def binder(self, index: int) -> Optional[Union[TyVarBind, TmVarBind]]:
        """The binder entry `index` steps in from the innermost end."""
        if 0 <= index < len(self.binders):
            return self.binders[-1 - index]
        return None

    # -- name lookups

    def type_sig(self, name: str) -> Optional[Union[DataDecl, OpenTypeDecl]]:
        return self.index.get(("type", name))

    def ctor_sig(self, name: str) -> Optional[Union[CtorDecl, OpenCtorDecl]]:
        return self.index.get(("ctor", name))

    def method_sig(self, name: str) -> Optional[MethodDecl]:
        return self.index.get(("method", name))

    def let_sig(self, name: str) -> Optional[LetDecl]:
        return self.index.get(("let", name))

    let_def = let_sig  # one LetDecl carries the type and the body

    def instance_defs(self, name: str) -> list[Node]:
        return list(self.index.get(("instances", name), ()))

    def ctors_of(self, type_name: str) -> list[Union[CtorDecl, OpenCtorDecl]]:
        """Constructors whose declared codomain head is `type_name`."""
        return list(self.index.get(("ctors_of", type_name), ()))

    def type_name_taken(self, name: str) -> bool:
        return ("type", name) in self.index

    def term_name_taken(self, name: str) -> bool:
        index = self.index
        return (("ctor", name) in index or ("method", name) in index
                or ("let", name) in index)

    def is_lambda_free(self) -> bool:
        """True when no entry is a bare term-variable binding."""
        return not any(isinstance(b, TmVarBind) for b in self.binders)


# ------------------------------------------------------------- utilities

def node_eq(a: Node, b: Node) -> bool:
    """Structural equality; alpha-equivalence is free under de Bruijn."""
    return a == b


def spine(term: Node) -> tuple[Node, list[tuple[bool, Node]]]:
    """Decompose nested applications into (head, args).

    Each arg is tagged (is_type, node); True marks a `[t]` type argument.
    """
    args: list[tuple[bool, Node]] = []
    while True:
        match term:
            case App(fun, arg):
                args.append((False, arg))
                term = fun
            case TyApp(fun, arg):
                args.append((True, arg))
                term = fun
            case _:
                args.reverse()
                return term, args


def plug_spine(head: Node, args: list[tuple[bool, Node]]) -> Node:
    for is_type, arg in args:
        head = TyApp(head, arg) if is_type else App(head, arg)
    return head


def applied(name: str, args: list[Node]) -> Node:
    """`TCon(name)` applied to `args`, the first outermost."""
    out: Node = TCon(name)
    for a in args:
        out = TApp(out, a)
    return out


def type_spine(ty: Node) -> tuple[Node, list[Node]]:
    args: list[Node] = []
    while isinstance(ty, TApp):
        args.append(ty.arg)
        ty = ty.fun
    args.reverse()
    return ty, args


def spine_head(ty: Node) -> Node:
    while isinstance(ty, TApp):
        ty = ty.fun
    return ty


def split_ctor_type(ty: Node) -> tuple[list[Node], list[Node], Node]:
    """Split `forall t1..tn. a1 -> .. -> am -> cod` into (kinds, args, cod)."""
    kinds: list[Node] = []
    while isinstance(ty, Forall):
        kinds.append(ty.kind)
        ty = ty.body
    args: list[Node] = []
    while (ac := un_arrow(ty)) is not None:
        args.append(ac[0])
        ty = ac[1]
    return kinds, args, ty


def children(n: Node) -> list[Node]:
    """Immediate sub-nodes, kinds included, pattern type args flattened."""
    out: list[Node] = []
    for name, role in FIELDS[type(n)]:
        if role is PATTERN:
            out.extend(getattr(n, name).type_args)
        elif role is not DATA:
            out.append(getattr(n, name))
    return out


def subnodes(n: Node) -> Iterator[Node]:
    """Preorder traversal of `n` and everything below it."""
    stack = [n]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(children(cur)))
