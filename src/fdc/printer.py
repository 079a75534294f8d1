"""Deterministic pretty-printer for the core syntax, and the tables the
parser reads too: the term syntax's operators and binders, and the
declaration forms.

Minimal parentheses by precedence (application > projection > `sym` > `@` >
`;;` > `|>` > `<+>` > binders), single spaces between tokens. Binders get
generated names (`x<n>` for term binders, `t<n>` for type binders, numbered
outside-in), which the parser resolves back to the same indices; free indices
print as `#k` relative to the term root.
"""

from __future__ import annotations

from dataclasses import fields

from .syntax import (
    Node, Star, KArr, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, Lam,
    App, TyLam, TyApp, Cast, Pattern, If, Guard, Zero, Choice, Refl, Sym,
    Trans, CApp, Fst, Snd, Univ, CInst, Sim, Decl, DataDecl, CtorDecl,
    OpenTypeDecl, OpenCtorDecl, MethodDecl, InstanceDecl, LetDecl, FIELDS,
    KIND, un_arrow,
)

# Term precedence levels, loosest to tightest.
BINDER, CHOICE, CAST, TRANS, CAPP, PREFIX, PROJ, APP, ATOM = range(9)

# The infix operators: token -> (node class, level, groups to the right?).
# `h @[t]` is the one postfix form, at the `@` level.
INFIX = {
    "<+>": (Choice, CHOICE, True),
    "|>": (Cast, CAST, False),
    ";;": (Trans, TRANS, True),
    "@": (CApp, CAPP, False),
}

# The binder forms `tok name:ann. body`; the annotation is a kind or a type
# as `FIELDS` says, and a kind annotation binds a type variable.
BINDERS = {"\\": Lam, "/\\": TyLam, "forallc": Univ}

_INFIX_OF = {cls: (tok, level, right)
             for tok, (cls, level, right) in INFIX.items()}
_BINDER_OF = {cls: tok for tok, cls in BINDERS.items()}

# The declaration forms `keyword name field ...;`: class -> (keyword, name
# starts uppercase?, fields). The fields are the dataclass's after `name`,
# each with the separator and the grammar (kind, type or term) its name
# fixes. `instance` is two forms, told apart by the name's case.
_FIELD_SYNTAX = {"kind": (":", "kind"), "type": (":", "type"),
                 "body": ("=", "term")}
DECLS = {
    cls: (keyword, upper,
          tuple((f.name, *_FIELD_SYNTAX[f.name]) for f in fields(cls)[1:]))
    for cls, keyword, upper in (
        (DataDecl, "data", True),
        (OpenTypeDecl, "open", True),
        (CtorDecl, "ctor", True),
        (OpenCtorDecl, "instance", True),
        (MethodDecl, "method", False),
        (InstanceDecl, "instance", False),
        (LetDecl, "let", False),
    )
}

# The prefixes of generated binder names, which the parser reserves.
TERM_PREFIX, TYPE_PREFIX = "x", "t"

# Type levels.
T_FORALL, T_ARROW, T_EQ, T_APP, T_ATOM = range(5)


def print_kind(k: Node, level: int = 0) -> str:
    match k:
        case Star():
            return "*"
        case KArr(l, r):
            s = f"{print_kind(l, 1)} -> {print_kind(r, 0)}"
            return f"({s})" if level > 0 else s
    raise TypeError(f"not a kind: {k!r}")


class _Printer:
    def __init__(self, names: tuple[str, ...] = ()) -> None:
        self.stack: list[str] = list(names)  # binder names, outermost first
        self.term_count = 0
        self.type_count = 0

    def fresh(self, is_type: bool) -> str:
        if is_type:
            name = f"{TYPE_PREFIX}{self.type_count}"
            self.type_count += 1
        else:
            name = f"{TERM_PREFIX}{self.term_count}"
            self.term_count += 1
        return name

    def lookup(self, index: int) -> str:
        if index < len(self.stack):
            return self.stack[-1 - index]
        return f"#{index - len(self.stack)}"

    # ---- types

    def ty(self, t: Node, level: int = 0) -> str:
        match t:
            case TVar(i):
                return self.lookup(i)
            case TCon("->"):
                return "(->)"
            case TCon(name):
                return name
            case Forall(k, body):
                name = self.fresh(True)
                self.stack.append(name)
                inner = self.ty(body, T_FORALL)
                self.stack.pop()
                s = f"forall {name}:{print_kind(k)}. {inner}"
                return f"({s})" if level > T_FORALL else s
            case EqTy(l, r, k):
                ann = "" if k == Star() else f"[{print_kind(k)}]"
                s = f"{self.ty(l, T_APP)} ~{ann} {self.ty(r, T_APP)}"
                return f"({s})" if level > T_EQ else s
            case TApp(_, _):
                if (dc := un_arrow(t)) is not None:
                    s = f"{self.ty(dc[0], T_EQ)} -> {self.ty(dc[1], T_ARROW)}"
                    return f"({s})" if level > T_ARROW else s
                s = f"{self.ty(t.fun, T_APP)} {self.ty(t.arg, T_ATOM)}"
                return f"({s})" if level > T_APP else s
        raise TypeError(f"not a type: {t!r}")

    # ---- terms

    def pat(self, p: Pattern) -> str:
        parts = [p.head] + [f"[{self.ty(a)}]" for a in p.type_args]
        return " ".join(parts)

    def tm(self, m: Node, level: int = 0) -> str:
        match m:
            case Var(i):
                return self.lookup(i)
            case Con(name) | Ref(name):
                return name
            case Zero():
                return "0"
            case Lam(ann, body) | TyLam(ann, body) | Univ(ann, body):
                cls = type(m)
                binds_type = FIELDS[cls][0][1] is KIND
                ann_s = print_kind(ann) if binds_type else self.ty(ann)
                name = self.fresh(binds_type)
                self.stack.append(name)
                inner = self.tm(body, BINDER)
                self.stack.pop()
                tok = _BINDER_OF[cls]
                space = " " if tok.isalpha() else ""
                s = f"{tok}{space}{name}:{ann_s}. {inner}"
                return f"({s})" if level > BINDER else s
            case If(scrut, pat, cons, alt):
                s = (f"if {self.tm(scrut, CHOICE)} is {self.pat(pat)} "
                     f"then {self.tm(cons, CHOICE)} else {self.tm(alt, BINDER)}")
                return f"({s})" if level > BINDER else s
            case Guard(scrut, pat, cons):
                s = (f"guard {self.tm(scrut, CHOICE)} is {self.pat(pat)} "
                     f"then {self.tm(cons, BINDER)}")
                return f"({s})" if level > BINDER else s
            case Choice(l, r) | Cast(l, r) | Trans(l, r) | CApp(l, r):
                tok, op, right = _INFIX_OF[type(m)]
                # the operand on the grouping side may sit at the same level
                s = (f"{self.tm(l, op + right)} {tok} "
                     f"{self.tm(r, op + (not right))}")
                return f"({s})" if level > op else s
            case CInst(co, t):
                s = f"{self.tm(co, CAPP)} @[{self.ty(t)}]"
                return f"({s})" if level > CAPP else s
            case Sym(a):
                s = f"sym {self.tm(a, PREFIX)}"
                return f"({s})" if level > PREFIX else s
            case Fst(a):
                s = f"{self.tm(a, PROJ)} .1"
                return f"({s})" if level > PROJ else s
            case Snd(a):
                s = f"{self.tm(a, PROJ)} .2"
                return f"({s})" if level > PROJ else s
            case App(f, a):
                s = f"{self.tm(f, APP)} {self.tm(a, ATOM)}"
                return f"({s})" if level > APP else s
            case TyApp(f, a):
                s = f"{self.tm(f, APP)} [{self.ty(a)}]"
                return f"({s})" if level > APP else s
            case Refl(t):
                return f"refl({self.ty(t)})"
            case Sim(l, r):
                return f"sim({self.tm(l)}, {self.tm(r)})"
        raise TypeError(f"not a term: {m!r}")


def print_type(t: Node, names: tuple[str, ...] = ()) -> str:
    """`t` with its free variables named by `names`, the last innermost."""
    return _Printer(names).ty(t)


def print_term(m: Node) -> str:
    return _Printer().tm(m)


_PRINT = {"kind": print_kind, "type": print_type, "term": print_term}


def print_node(n: Node) -> str:
    """Print any node, choosing the kind/type/term syntax by its class."""
    match n:
        case Star() | KArr():
            return print_kind(n)
        case TVar() | TCon() | TApp() | EqTy() | Forall():
            return print_type(n)
        case _:
            return print_term(n)


def print_decl(d: Decl) -> str:
    form = DECLS.get(type(d))
    if form is None:
        raise TypeError(f"not a declaration: {d!r}")
    keyword, _, decl_fields = form
    s = f"{keyword} {d.name}"
    for field, sep, grammar in decl_fields:
        s += f" {sep} {_PRINT[grammar](getattr(d, field))}"
    return s + ";"


def print_core(obj) -> str:
    """Print a node, a declaration, or a whole program."""
    if isinstance(obj, Decl):
        return print_decl(obj)
    if isinstance(obj, list):
        return "\n".join(print_decl(d) for d in obj) + ("\n" if obj else "")
    return print_node(obj)
