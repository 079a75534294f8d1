"""Unified abstract syntax: kinds, types, terms (incl. coercions), patterns,
declarations, and environments.

One merged node family covers every syntactic category; which judgment a node
belongs to (kinding vs typing) is decided by the checker, not the grammar.
Variables bound by `Forall`/`Lam`/`TyLam`/`Univ` are de Bruijn indices into a
single shared telescope; declared constants (type constants, constructors,
open functions, lets) are strings resolved against the environment.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): each class's constructor, generated from `FIELDS`,
computes the node's structural hash and loose range from its children's
stored values, with no recursion, and returns the node its class's intern
table already holds when that node has the same fields. A class's table
holds two generations of at most `TABLE_LIMIT` nodes each: when the newer
is full it replaces the older, so a structure of up to `TABLE_LIMIT` nodes
built twice in a row is one object. Two equal nodes need not be one object
(one may predate a dropped generation): `==` is the one structural
equality, and compares identity and stored hashes before any field, over
an explicit stack.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Iterator, Optional, Union

# Entries per generation of an intern table, and in `subst`'s shift memo.
TABLE_LIMIT = 2 ** 14


class Node:
    """Base class for all syntax nodes, which are immutable. Each node class
    declares one slot per field, so a node holds its fields, hash and loose
    range in slots, with no `__dict__`."""

    __slots__ = ("_hash", "_range")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Structural equality, which is alpha-equivalence under de Bruijn:
        one object, or two different stored hashes, answer at once;
        otherwise the fields are compared in order, over an explicit stack,
        so two equal deep terms that are not one object compare without
        recursion. A pattern compares its head and arity, then its type
        arguments."""
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name, role in reversed(FIELDS[type(a)]):
                x, y = getattr(a, name), getattr(b, name)
                if role is DATA:
                    if x != y:
                        return False
                elif role is PATTERN:
                    if (x.head != y.head
                            or len(x.type_args) != len(y.type_args)):
                        return False
                    todo += zip(reversed(x.type_args), reversed(y.type_args))
                else:
                    todo.append((x, y))
        return True

    def __repr__(self) -> str:
        """`Class(field=value, ...)`, a pattern shown as its dataclass
        repr, written over an explicit stack, so a deep node prints
        without recursion."""
        out: list[str] = []
        todo: list = [self]
        while todo:
            x = todo.pop()
            if not isinstance(x, Node):
                out.append(x)
                continue
            cls = type(x)
            parts: list = [f"{cls.__name__}("]
            for k, (name, role) in enumerate(FIELDS[cls]):
                v = getattr(x, name)
                parts.append(f"{', ' if k else ''}{name}=")
                if role is DATA:
                    parts.append(repr(v))
                elif role is PATTERN:
                    parts.append(f"Pattern(head={v.head!r}, type_args=(")
                    for j, t in enumerate(v.type_args):
                        parts += (", ", t) if j else (t,)
                    parts.append(",))" if len(v.type_args) == 1 else "))")
                else:
                    parts.append(v)
            parts.append(")")
            todo += reversed(parts)
        return "".join(out)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle through the constructor, which interns."""
        cls = type(self)
        return cls, tuple(getattr(self, f) for f, _ in FIELDS[cls])


# Annotations that mark a field as a binder body or a kind (see `FIELDS`).
Body = Kind = Node


# Per node class, its dataclass fields in order, each with its role, read
# off its annotation: an open position (`Node`); a binder body (`Body`), one
# telescope slot deeper; a closed kind (`Kind`: no variable or reference); a
# pattern, whose type arguments are open positions; or data (index, name).
OPEN, BINDER, KIND, PATTERN, DATA = "open", "binder", "kind", "pattern", "data"
_ROLES = {"Node": OPEN, "Body": BINDER, "Kind": KIND, "Pattern": PATTERN}
FIELDS: dict[type, tuple[tuple[str, str], ...]] = {}

_TEMPLATE = """
def __new__(cls, {params}):
    h = hash(({tag}, {hashed}))
    old = get(h)
    if old is None:
        old = get_older(h)
    if old is not None{same}:
        return old
    n = new(C)
    {store}
    set_range(n, r)
    set_hash(n, h)
    if len(table) >= TABLE_LIMIT:
        older.clear()
        older.update(table)
        table.clear()
    table[h] = n
    return n
"""


def _pattern_range(p: Pattern) -> int:
    return max((t._range for t in p.type_args), default=0)


def _intern(cls: type, tag: int) -> None:
    """Give node class `cls` its interning constructor.

    The constructor hashes the class's `tag` with each child's stored hash
    and each datum (a pattern by its own hash, from its type arguments'),
    and takes the loose range from the children's: an open child's range,
    a binder body's less one, a pattern's largest, and a variable's index
    plus one; kinds are closed. When the class's table holds a node under
    that hash, in its newer generation or else its older, whose children
    are these very objects and whose data are equal, that node is
    returned; otherwise the new node goes into the newer generation."""
    shape = FIELDS[cls]
    nodes = [f for f, role in shape if role in (OPEN, BINDER, KIND)]
    store = [f"set_{f}(n, {f})" for f, _ in shape]
    if shape == (("index", DATA),):  # a variable
        store.append("r = index + 1")
    else:
        store.append("r = 0")
        for f, role in shape:
            x = {OPEN: f"{f}._range", BINDER: f"{f}._range - 1",
                 PATTERN: f"pattern_range({f})"}.get(role)
            if x is not None:
                store += [f"x = {x}", "if x > r: r = x"]
    source = _TEMPLATE.format(
        params=", ".join(f for f, _ in shape), tag=tag,
        hashed="".join(f"{f}._hash, " if f in nodes else f"{f}, "
                       for f, _ in shape),
        same="".join(f" and old.{f} is {f}" if f in nodes
                     else f" and old.{f} == {f}" for f, _ in shape),
        store="\n    ".join(store))
    table: dict = {}
    older: dict = {}
    ns = {"C": cls, "table": table, "get": table.get, "older": older,
          "get_older": older.get, "new": object.__new__,
          "TABLE_LIMIT": TABLE_LIMIT, "pattern_range": _pattern_range,
          "set_hash": Node._hash.__set__, "set_range": Node._range.__set__,
          **{f"set_{f}": cls.__dict__[f].__set__ for f, _ in shape}}
    exec(source, ns)
    cls.__new__ = staticmethod(ns["__new__"])


def node(cls: type) -> type:
    """Make `cls` a node class: a dataclass for its fields and match
    arguments, with its `FIELDS` entry and the constructor generated from
    it."""
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    FIELDS[cls] = tuple((f.name, _ROLES.get(f.type, DATA))
                        for f in fields(cls))
    _intern(cls, len(FIELDS))
    return cls


# ---------------------------------------------------------------- kinds

@node
class Star(Node):
    """Kind of inhabited types: `*`."""

    __slots__ = ()


@node
class KArr(Node):
    """Kind of type constructors: `k1 -> k2`."""

    __slots__ = ("left", "right")
    left: Kind
    right: Kind


STAR = Star()


# ---------------------------------------------------------------- types

@node
class TVar(Node):
    """De Bruijn type variable."""

    __slots__ = ("index",)
    index: int


@node
class TCon(Node):
    """Named type constant (closed or open)."""

    __slots__ = ("name",)
    name: str


@node
class TApp(Node):
    """Type application. `a -> b` is sugar for `TApp(TApp(TCon('->'), a), b)`."""

    __slots__ = ("fun", "arg")
    fun: Node
    arg: Node


@node
class EqTy(Node):
    """Coercion type `lhs ~[kind] rhs`."""

    __slots__ = ("lhs", "rhs", "kind")
    lhs: Node
    rhs: Node
    kind: Kind


@node
class Forall(Node):
    """Universally quantified type; binds one type variable."""

    __slots__ = ("kind", "body")
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

@node
class Var(Node):
    """De Bruijn term variable."""

    __slots__ = ("index",)
    index: int


@node
class Con(Node):
    """Constructor constant (closed or open data)."""

    __slots__ = ("name",)
    name: str


@node
class Ref(Node):
    """Reference to an open function or a let binding, by name."""

    __slots__ = ("name",)
    name: str


@node
class Lam(Node):
    """Term abstraction; the annotation is the bound variable's type."""

    __slots__ = ("ann", "body")
    ann: Node
    body: Body


@node
class App(Node):
    """Term application `M N`."""

    __slots__ = ("fun", "arg")
    fun: Node
    arg: Node


@node
class TyLam(Node):
    """Type abstraction; binds one type variable of the given kind."""

    __slots__ = ("kind", "body")
    kind: Kind
    body: Body


@node
class TyApp(Node):
    """Type application of a term: `M [t]`."""

    __slots__ = ("fun", "arg")
    fun: Node
    arg: Node


@node
class Cast(Node):
    """`M |> h` — cast the subject by a coercion."""

    __slots__ = ("subject", "coercion")
    subject: Node
    coercion: Node


@dataclass(frozen=True)
class Pattern:
    """Constructor pattern `K [t1] ... [tn]` (type arguments only)."""

    head: str
    type_args: tuple[Node, ...] = ()


@node
class If(Node):
    """Pattern match over a closed data type, with an else branch."""

    __slots__ = ("scrut", "pat", "cons", "alt")
    scrut: Node
    pat: Pattern
    cons: Node
    alt: Node


@node
class Guard(Node):
    """Pattern match over an open data type; a miss reduces to zero."""

    __slots__ = ("scrut", "pat", "cons")
    scrut: Node
    pat: Pattern
    cons: Node


@node
class Zero(Node):
    """The failure element; inhabits every type, never a value."""

    __slots__ = ()


@node
class Choice(Node):
    """Nondeterministic choice between two alternatives."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


ZERO = Zero()


# ------------------------------------------------------------- coercions

@node
class Refl(Node):
    """`refl(t)` — the only closed coercion value (up to choice trees)."""

    __slots__ = ("type",)
    type: Node


@node
class Sym(Node):
    """`sym(h)` — symmetry."""

    __slots__ = ("arg",)
    arg: Node


@node
class Trans(Node):
    """`h ;; k` — transitivity."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@node
class CApp(Node):
    """`h @ k` — congruence at a type application."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@node
class Fst(Node):
    """`h .1` — head projection of an application coercion."""

    __slots__ = ("arg",)
    arg: Node


@node
class Snd(Node):
    """`h .2` — argument projection of an application coercion."""

    __slots__ = ("arg",)
    arg: Node


@node
class Univ(Node):
    """`forallc t:k. h` — congruence under a quantifier; binds one type var."""

    __slots__ = ("kind", "body")
    kind: Kind
    body: Body


@node
class CInst(Node):
    """`h @[t]` — instantiation of a quantified coercion."""

    __slots__ = ("coercion", "type")
    coercion: Node
    type: Node


@node
class Sim(Node):
    """`sim(h, k)` — congruence at a coercion type."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


# The classes with a position a variable can occur in; the others (leaves,
# and `KArr`, whose fields are all kinds) are closed.
SCOPED_FIELDS = {cls: shape for cls, shape in FIELDS.items()
                 if any(role not in (KIND, DATA) for _, role in shape)}


def loose_range(n: Node) -> int:
    """1 + the largest free de Bruijn index of `n`, or 0 when `n` is closed;
    stored on the node when it was built."""
    return n._range


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
