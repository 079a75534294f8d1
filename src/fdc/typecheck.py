"""Environment formation, kinding, term and coercion typing, declaration
checking, and the data/open head judgments.

Inference is total and deterministic: `0` infers `AnyType`, which merges with
an `Exactly` branch at a choice by taking the exact side; everything else is
syntax-directed. Type equality is structural equality of de Bruijn trees.

The checker builds the path to the current subterm as a cons list, `()` or
`(parent, segment)`, so a step down costs one pair and no copy; `_fail`
flattens it into the tuple a `Diagnostic` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NoReturn, Optional, Union

from . import printer
from .syntax import (
    Node, Star, KArr, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, Lam,
    App, TyLam, TyApp, Cast, Pattern, If, Guard, Zero, Choice, Refl, Sym,
    Trans, CApp, Fst, Snd, Univ, CInst, Sim, Decl, DataDecl, CtorDecl,
    OpenTypeDecl, OpenCtorDecl, MethodDecl, InstanceDecl, LetDecl, Env,
    TyVarBind, TmVarBind, STAR, spine_head, split_ctor_type, un_arrow, arrow,
)
from .subst import (
    instantiate, instantiate_all, is_closed, shift, try_unshift,
)


@dataclass(frozen=True)
class Exactly:
    type: Node


@dataclass(frozen=True)
class AnyType:
    """Inferred "type" of a bare 0 or an all-zero choice tree."""


ANY = AnyType()
TypeResult = Union[Exactly, AnyType]

# `()`, or `(parent path, segment)`: see the module docstring.
Path = tuple


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    path: tuple[str, ...] = ()
    expected: Optional[str] = None
    found: Optional[str] = None
    span: Optional[tuple[int, int]] = None

    def __str__(self) -> str:
        loc = f"{self.span[0]}:{self.span[1]}: " if self.span else ""
        at = f" at {'.'.join(self.path)}" if self.path else ""
        shown = [f"{label} {value}" for label, value in
                 (("expected", self.expected), ("found", self.found))
                 if value is not None]
        detail = f" ({', '.join(shown)})" if shown else ""
        return f"{loc}{self.code}: {self.message}{at}{detail}"

    def to_record(self) -> dict:
        rec = {"code": self.code, "message": self.message}
        if self.path:
            rec["path"] = list(self.path)
        if self.expected is not None:
            rec["expected"] = self.expected
        if self.found is not None:
            rec["found"] = self.found
        if self.span is not None:
            rec["line"], rec["col"] = self.span
        return rec


class CheckError(Exception):
    """The one failure type: every layer, from the checker to the
    elaborator, synthesis and analysis, raises it (or a subclass) with the
    `Diagnostic` that the CLI reports."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _show(x: Node | str | None) -> Optional[str]:
    return x if x is None or isinstance(x, str) else printer.print_node(x)


def _fail(code: str, message: str, path: Path = (),
          expected: Node | str | None = None,
          found: Node | str | None = None,
          error: type[CheckError] = CheckError) -> NoReturn:
    """Raise `error` with a diagnostic; node details are printed."""
    segments = []
    while path:
        path, segment = path
        segments.append(segment)
    raise error(Diagnostic(code, message, tuple(reversed(segments)),
                           _show(expected), _show(found)))


# ------------------------------------------------------------- kinding

def is_kind(n: Node) -> bool:
    match n:
        case Star():
            return True
        case KArr(l, r):
            return is_kind(l) and is_kind(r)
    return False


def kind_of(env: Env, ty: Node, path: Path = ()) -> Node:
    match ty:
        case TVar(i):
            entry = env.binder(i)
            if entry is None:
                _fail("unbound-var", f"type variable #{i} is not in scope", path)
            if not isinstance(entry, TyVarBind):
                _fail("classification", f"variable #{i} is a term variable", path)
            return entry.kind
        case TCon(name):
            sig = env.type_sig(name)
            if sig is None:
                _fail("unbound-con", f"type constant {name!r} is not declared", path)
            return sig.kind
        case TApp(f, a):
            kf = kind_of(env, f, (path, "fun"))
            ka = kind_of(env, a, (path, "arg"))
            match kf:
                case KArr(dom, cod):
                    if dom != ka:
                        _fail("kind-mismatch", "type argument kind mismatch",
                              path, expected=dom, found=ka)
                    return cod
            _fail("kind-mismatch", "applied type is not a constructor",
                  path, expected="an arrow kind", found=kf)
        case Forall(k, body):
            if not is_kind(k):
                _fail("bad-kind", "malformed kind annotation", path)
            kb = kind_of(env.push(TyVarBind(k)), body, (path, "body"))
            if kb != STAR:
                _fail("kind-mismatch", "quantified body must have kind *",
                      path, expected=STAR, found=kb)
            return STAR
        case EqTy(l, r, k):
            if not is_kind(k):
                _fail("bad-kind", "malformed kind annotation", path)
            kl = kind_of(env, l, (path, "lhs"))
            kr = kind_of(env, r, (path, "rhs"))
            if kl != k or kr != k:
                _fail("kind-mismatch", "equality sides must share the annotated kind",
                      path, expected=k, found=kl if kl != k else kr)
            return STAR
    _fail("classification", "expected a type", path, found=ty)


def is_data_head(env: Env, ty: Node) -> bool:
    head = spine_head(ty)
    return isinstance(head, TCon) and isinstance(env.type_sig(head.name), DataDecl)


def is_open_head(env: Env, ty: Node) -> bool:
    head = spine_head(ty)
    return isinstance(head, TCon) and isinstance(env.type_sig(head.name),
                                                   OpenTypeDecl)


# ------------------------------------------------------------- patterns

def pattern_type(env: Env, p: Pattern, scrut_ty: Optional[Node] = None,
                 path: Path = ()) -> tuple[list[Node], list[Node], Node]:
    """Residual binder kinds, argument types (under the residual telescope),
    and the instantiated codomain (expressed outside the telescope).

    When `scrut_ty` is given, the codomain must match it exactly.
    """
    sig = env.ctor_sig(p.head)
    if sig is None:
        _fail("ctor-unknown", f"constructor {p.head!r} is not declared", path)
    kinds, args, cod = split_ctor_type(sig.type)
    if len(p.type_args) > len(kinds):
        _fail("too-many-type-args",
              f"pattern {p.head!r} instantiates {len(p.type_args)} of "
              f"{len(kinds)} quantifiers", path)
    for i, targ in enumerate(p.type_args):
        ka = kind_of(env, targ, (path, f"pattern-arg-{i}"))
        if ka != kinds[i]:
            _fail("kind-mismatch", "pattern type argument kind mismatch",
                  path, expected=kinds[i], found=ka)
    res_kinds, arg_tys, plain_cod = _open_pattern(sig.type, p.type_args)
    if plain_cod is None:
        _fail("codomain-escape",
              f"codomain of {p.head!r} mentions existential binders", path)
    if scrut_ty is not None and plain_cod != scrut_ty:
        _fail("pattern-mismatch", "pattern codomain does not match the scrutinee",
              path, expected=scrut_ty, found=plain_cod)
    return list(res_kinds), list(arg_tys), plain_cod


# Entries kept by the memo below. The elaborator, `check_decl` on what it
# emits, and any later check of the output open the same guard patterns
# soon after one another: one seed-3001 `elab-classes` pass opens 307
# distinct patterns 3,056 times, and 64 entries already catch every repeat
# within one program.
PATTERN_MEMO_SIZE = 128


@lru_cache(maxsize=PATTERN_MEMO_SIZE)
def _open_pattern(ctor_type: Node, type_args: tuple[Node, ...]
                  ) -> tuple[tuple[Node, ...], tuple[Node, ...],
                             Optional[Node]]:
    """`ctor_type` instantiated at `type_args` and split: the residual
    binder kinds, the argument types, and the codomain shifted out of the
    residual telescope (None when it mentions a residual binder)."""
    ty = ctor_type
    for _ in type_args:
        ty = ty.body
    res_kinds, arg_tys, cod = split_ctor_type(instantiate_all(ty, type_args))
    return tuple(res_kinds), tuple(arg_tys), try_unshift(cod, len(res_kinds))


def _match_consequent(res_kinds: list[Node], arg_tys: list[Node],
                      cons_ty: Node, path: Path) -> Node:
    """Strip the pattern telescope off an inferred consequent type and return
    the result type, expressed outside the telescope."""
    ty = cons_ty
    for i, k in enumerate(res_kinds):
        match ty:
            case Forall(kk, body):
                if kk != k:
                    _fail("pattern-mismatch",
                          f"consequent quantifier {i} has the wrong kind",
                          path, expected=k, found=kk)
                ty = body
            case _:
                _fail("pattern-mismatch",
                      f"consequent must bind {len(res_kinds)} type variables",
                      path, found=ty)
    for i, want in enumerate(arg_tys):
        ac = un_arrow(ty)
        if ac is None:
            _fail("pattern-mismatch",
                  f"consequent must take {len(arg_tys)} pattern arguments",
                  path, found=ty)
        if ac[0] != want:
            _fail("pattern-mismatch",
                  f"consequent argument {i} has the wrong type",
                  path, expected=want, found=ac[0])
        ty = ac[1]
    out = try_unshift(ty, len(res_kinds))
    if out is None:
        _fail("codomain-escape",
              "result type mentions the pattern's residual binders", path,
              found=ty)
    return out


# ------------------------------------------------------------- coercions

def _coerce(env: Env, eta: Node,
            path: Path) -> Optional[tuple[Node, Node, Node]]:
    """Coercion typing; None means the coercion is a zero-like term that can
    be given any coercion type."""
    match eta:
        case Refl(t):
            k = kind_of(env, t, (path, "refl"))
            return t, t, k
        case Sym(a):
            got = _coerce(env, a, (path, "sym"))
            if got is None:
                return None
            l, r, k = got
            return r, l, k
        case Trans(a, b):
            ga = _coerce(env, a, (path, "trans-left"))
            gb = _coerce(env, b, (path, "trans-right"))
            if ga is None:
                return None if gb is None else (gb[0], gb[1], gb[2])
            if gb is None:
                return ga
            if ga[1] != gb[0]:
                _fail("coercion-shape", "transitivity endpoints do not meet",
                      path, expected=ga[1], found=gb[0])
            if ga[2] != gb[2]:
                _fail("coercion-shape", "transitivity kinds differ",
                      path, expected=ga[2], found=gb[2])
            return ga[0], gb[1], ga[2]
        case CApp(a, b):
            ga = _coerce(env, a, (path, "capp-fun"))
            gb = _coerce(env, b, (path, "capp-arg"))
            if ga is None or gb is None:
                return None
            match ga[2]:
                case KArr(dom, cod):
                    if dom != gb[2]:
                        _fail("coercion-shape",
                              "coercion application kind mismatch",
                              path, expected=dom, found=gb[2])
                    return TApp(ga[0], gb[0]), TApp(ga[1], gb[1]), cod
            _fail("coercion-shape", "coercion head is not at constructor kind",
                  path, found=ga[2])
        case Fst(a) | Snd(a):
            seg, side = ("fst", "fun") if isinstance(eta, Fst) else ("snd", "arg")
            got = _coerce(env, a, (path, seg))
            if got is None:
                return None
            l, r, _ = got
            if not isinstance(l, TApp) or not isinstance(r, TApp):
                _fail("coercion-shape",
                      "projection requires type applications on both sides",
                      path, found=l if not isinstance(l, TApp) else r)
            pl, pr = getattr(l, side), getattr(r, side)
            return pl, pr, kind_of(env, pl, (path, seg))
        case Univ(k, body):
            if not is_kind(k):
                _fail("bad-kind", "malformed kind annotation", path)
            got = _coerce(env.push(TyVarBind(k)), body, (path, "forallc"))
            if got is None:
                return None
            l, r, kk = got
            return Forall(k, l), Forall(k, r), kk
        case CInst(a, t):
            got = _coerce(env, a, (path, "inst"))
            if got is None:
                return None
            l, r, kk = got
            if not isinstance(l, Forall) or not isinstance(r, Forall) \
                    or l.kind != r.kind:
                _fail("coercion-shape",
                      "instantiation requires quantified types at one kind",
                      path, found=l if not isinstance(l, Forall) else r)
            ka = kind_of(env, t, (path, "inst-arg"))
            if ka != l.kind:
                _fail("kind-mismatch", "coercion instantiation kind mismatch",
                      path, expected=l.kind, found=ka)
            return instantiate(l.body, t), instantiate(r.body, t), kk
        case Sim(a, b):
            ga = _coerce(env, a, (path, "sim-left"))
            gb = _coerce(env, b, (path, "sim-right"))
            if ga is None or gb is None:
                return None
            if ga[2] != gb[2]:
                _fail("coercion-shape", "sim sides must share a kind",
                      path, expected=ga[2], found=gb[2])
            k = ga[2]
            return EqTy(ga[0], gb[0], k), EqTy(ga[1], gb[1], k), STAR
        case _:
            got = infer_term(env, eta, path)
            if isinstance(got, AnyType):
                return None
            match got.type:
                case EqTy(l, r, k):
                    return l, r, k
            _fail("coercion-shape", "term used as a coercion",
                  path, expected="an equality type", found=got.type)


# ------------------------------------------------------------- terms

def infer_term(env: Env, m: Node, path: Path = ()) -> TypeResult:
    match m:
        case Var(i):
            entry = env.binder(i)
            if entry is None:
                _fail("unbound-var", f"term variable #{i} is not in scope", path)
            if not isinstance(entry, TmVarBind):
                _fail("classification", f"variable #{i} is a type variable", path)
            return Exactly(shift(entry.type, i + 1))
        case Con(name):
            sig = env.ctor_sig(name)
            if sig is None:
                _fail("unbound-con", f"constructor {name!r} is not declared", path)
            return Exactly(sig.type)
        case Ref(name):
            msig = env.method_sig(name)
            if msig is not None:
                return Exactly(msig.type)
            lsig = env.let_sig(name)
            if lsig is not None:
                return Exactly(lsig.type)
            _fail("unbound-var", f"{name!r} is not a declared open function or let",
                  path)
        case Zero():
            return ANY
        case Lam():
            return _infer_lams(env, m, path)
        case App(f, a):
            gf = infer_term(env, f, (path, "fun"))
            ga = infer_term(env, a, (path, "arg"))
            if isinstance(gf, AnyType):
                return ANY
            ac = un_arrow(gf.type)
            if ac is None:
                _fail("not-arrow", "applied term is not a function",
                      path, expected="a function type", found=gf.type)
            if isinstance(ga, Exactly) and ga.type != ac[0]:
                _fail("type-mismatch", "argument type mismatch",
                      path, expected=ac[0], found=ga.type)
            return Exactly(ac[1])
        case TyLam(k, body):
            if not is_kind(k):
                _fail("bad-kind", "malformed kind annotation", path)
            got = infer_term(env.push(TyVarBind(k)), body, (path, "body"))
            if isinstance(got, AnyType):
                return ANY
            return Exactly(Forall(k, got.type))
        case TyApp(f, t):
            gf = infer_term(env, f, (path, "fun"))
            kt = kind_of(env, t, (path, "type-arg"))
            if isinstance(gf, AnyType):
                return ANY
            match gf.type:
                case Forall(k, body):
                    if k != kt:
                        _fail("kind-mismatch", "type argument kind mismatch",
                              path, expected=k, found=kt)
                    return Exactly(instantiate(body, t))
            _fail("not-forall", "type application of an unquantified term",
                  path, expected="a quantified type", found=gf.type)
        case Cast(subj, co):
            got = _coerce(env, co, (path, "coercion"))
            gs = infer_term(env, subj, (path, "subject"))
            if got is None:
                return ANY
            l, r, k = got
            if k != STAR:
                _fail("kind-mismatch", "term-level casts require a * coercion",
                      path, expected=STAR, found=k)
            if isinstance(gs, Exactly) and gs.type != l:
                _fail("type-mismatch", "cast subject does not match the coercion",
                      path, expected=l, found=gs.type)
            return Exactly(r)
        case If(scrut, pat, cons, alt):
            return _infer_match(env, scrut, pat, cons, alt, path)
        case Guard(scrut, pat, cons):
            return _infer_match(env, scrut, pat, cons, None, path)
        case Choice(l, r):
            gl = infer_term(env, l, (path, "left"))
            gr = infer_term(env, r, (path, "right"))
            if isinstance(gl, AnyType):
                return gr
            if isinstance(gr, AnyType):
                return gl
            if gl.type != gr.type:
                _fail("type-mismatch", "choice alternatives have different types",
                      path, expected=gl.type, found=gr.type)
            return gl
        case Refl() | Sym() | Trans() | CApp() | Fst() | Snd() | Univ() \
                | CInst() | Sim():
            got = _coerce(env, m, path)
            if got is None:
                return ANY
            l, r, k = got
            return Exactly(EqTy(l, r, k))
    _fail("classification", "expected a term", path, found=m)


def _infer_lams(env: Env, m: Node, path: Path) -> TypeResult:
    """A chain of lambdas in one pass: each annotation is kind-checked and
    its binder pushed, outermost first, and the innermost body is inferred
    once. Its type is unshifted once past the whole chain, and each
    annotation past the term binders before it."""
    anns = []
    while isinstance(m, Lam):
        ka = kind_of(env, m.ann, (path, "ann"))
        if ka != STAR:
            _fail("kind-mismatch", "lambda annotation must be a * type",
                  path, expected=STAR, found=ka)
        anns.append(m.ann)
        env = env.push(TmVarBind(m.ann))
        m, path = m.body, (path, "body")
    got = infer_term(env, m, path)
    if isinstance(got, AnyType):
        return ANY
    ty = try_unshift(got.type, len(anns))
    if ty is not None:
        for j in reversed(range(len(anns))):
            ty = arrow(shift(anns[j], -j), ty)
        return Exactly(ty)
    # the body type names a binder of the chain: the per-layer rule,
    # innermost first, finds the layer whose binder it is
    ty = got.type
    for ann in reversed(anns):
        path = path[0]
        cod = try_unshift(ty, 1)
        if cod is None:
            _fail("dependent-type", "body type mentions the term binder",
                  path, found=ty)
        ty = arrow(ann, cod)
    return Exactly(ty)


def _infer_match(env: Env, scrut: Node, pat: Pattern, cons: Node,
                 alt: Optional[Node], path: Path) -> TypeResult:
    which = "if" if alt is not None else "guard"
    gs = infer_term(env, scrut, (path, "scrut"))
    res_kinds, arg_tys, cod = pattern_type(
        env, pat, gs.type if isinstance(gs, Exactly) else None,
        (path, "pattern"))
    scrut_ty = gs.type if isinstance(gs, Exactly) else cod
    if alt is not None:
        if not is_data_head(env, scrut_ty):
            _fail("not-data", "if scrutinee must be a closed data type",
                  path, found=scrut_ty)
    else:
        if not is_open_head(env, scrut_ty):
            _fail("not-open", "guard scrutinee must be an open data type",
                  path, found=scrut_ty)
    gc = infer_term(env, cons, (path, "cons"))
    result: Optional[Node] = None
    if isinstance(gc, Exactly):
        result = _match_consequent(res_kinds, arg_tys, gc.type,
                                   (path, "cons"))
    if alt is not None:
        ga = infer_term(env, alt, (path, "alt"))
        if isinstance(ga, Exactly):
            if result is not None and result != ga.type:
                _fail("type-mismatch",
                      f"{which} branches have different types",
                      path, expected=result, found=ga.type)
            result = ga.type
    return Exactly(result) if result is not None else ANY


def check_term(env: Env, m: Node, expected: Node,
               path: Path = ()) -> None:
    ke = kind_of(env, expected, path)
    if ke != STAR:
        _fail("kind-mismatch", "checked type must have kind *",
              path, expected=STAR, found=ke)
    _check(env, m, expected, path)


def _check(env: Env, m: Node, expected: Node, path: Path) -> None:
    match m:
        case Zero():
            return
        case Choice(l, r):
            _check(env, l, expected, (path, "left"))
            _check(env, r, expected, (path, "right"))
            return
        case Lam():
            _check_lams(env, m, expected, path)
            return
        case TyLam(k, body):
            match expected:
                case Forall(kk, ety) if k == kk:
                    _check(env.push(TyVarBind(k)), body, ety, (path, "body"))
                    return
            _fail("type-mismatch", "type abstraction checked against a bad type",
                  path, expected=expected, found="a type abstraction")
        case _:
            got = infer_term(env, m, path)
            if isinstance(got, AnyType):
                return
            if got.type != expected:
                _fail("type-mismatch", "term type mismatch",
                      path, expected=expected, found=got.type)


def _check_lams(env: Env, m: Node, expected: Node,
                path: Path) -> None:
    """A chain of lambdas checked against an arrow telescope in one pass.
    The telescope stays over the binders outside the chain: each domain is
    shifted past the term binders before its lambda, and the codomain that
    remains is shifted once, for the innermost body."""
    depth = 0
    while isinstance(m, Lam):
        ac = un_arrow(expected)
        if ac is None:
            _fail("type-mismatch", "lambda checked against a non-function type",
                  path, expected=shift(expected, depth), found="a lambda")
        dom = shift(ac[0], depth)
        if m.ann != dom:
            _fail("type-mismatch", "lambda annotation mismatch",
                  path, expected=dom, found=m.ann)
        env = env.push(TmVarBind(m.ann))
        expected, m, path, depth = ac[1], m.body, (path, "body"), depth + 1
    _check(env, m, shift(expected, depth), path)


# --------------------------------------------------------- environments

def check_env(env: Env) -> None:
    """Formation of the whole environment, walking it forward: each binder
    and each declaration in the scope of the entries before it. Public as
    the calculus's environment judgment, though only tests call it."""
    scope = Env(())
    for i, entry in enumerate(env.entries):
        where = ((), f"entry-{i}")
        match entry:
            case TyVarBind(k):
                if not is_kind(k):
                    _fail("bad-kind", "malformed binder kind", where)
            case TmVarBind(t):
                k = kind_of(scope, t, where)
                if k != STAR:
                    _fail("kind-mismatch", "term binding must have kind *",
                          where, expected=STAR, found=k)
            case _:
                scope = check_decl(scope, entry)
                continue
        scope = scope.push(entry)


# --------------------------------------------------------- declarations

def check_decl(env: Env, d: Decl) -> Env:
    """Check `d` in `env` and return `env` with `d` pushed."""
    match d:
        case DataDecl(name, k) | OpenTypeDecl(name, k):
            _fresh_type_name(env, name)
            if not is_kind(k):
                _fail("bad-kind", f"malformed kind for {name!r}")
        case CtorDecl(name, t) | OpenCtorDecl(name, t):
            _ctor_checks(env, name, t, want_open=isinstance(d, OpenCtorDecl))
        case MethodDecl(name, t):
            _fresh_term_name(env, name)
            _closed_star_type(env, name, t)
        case InstanceDecl(name, body):
            sig = env.method_sig(name)
            if sig is None:
                _fail("instance-no-method",
                      f"instance for undeclared open function {name!r}")
            if not is_closed(body):
                _fail("closed-required", f"instance body for {name!r} must be closed")
            # the signature was kinded when its MethodDecl was checked
            _check(env, body, sig.type, ())
        case LetDecl(name, t, body):
            _fresh_term_name(env, name)
            _closed_star_type(env, name, t)
            if not is_closed(body):
                _fail("closed-required", f"let body for {name!r} must be closed")
            _check(env, body, t, ())  # `_closed_star_type` kinded `t`
        case _:
            _fail("bad-decl", f"unknown declaration {d!r}")
    return env.push(d)


def _fresh_type_name(env: Env, name: str) -> None:
    if env.type_name_taken(name):
        _fail("duplicate-name", f"type constant {name!r} is already declared")


def _fresh_term_name(env: Env, name: str) -> None:
    if env.term_name_taken(name):
        _fail("duplicate-name", f"{name!r} is already declared")


def _closed_star_type(env: Env, name: str, t: Node) -> None:
    if not is_closed(t):
        _fail("closed-required", f"declared type of {name!r} must be closed")
    k = kind_of(env, t)
    if k != STAR:
        _fail("kind-mismatch", f"declared type of {name!r} must have kind *",
              expected=STAR, found=k)


def _ctor_checks(env: Env, name: str, t: Node, want_open: bool) -> None:
    _fresh_term_name(env, name)
    _closed_star_type(env, name, t)
    kinds, _, cod = split_ctor_type(t)
    scope = env
    for k in kinds:
        scope = scope.push(TyVarBind(k))
    if want_open:
        if not is_open_head(scope, cod):
            _fail("not-open",
                  f"open constructor {name!r} must target an open type",
                  found=cod)
    else:
        if not is_data_head(scope, cod):
            _fail("not-data",
                  f"constructor {name!r} must target a closed data type",
                  found=cod)


def check_program(env: Env, decls: list[Decl],
                  spans: Optional[list[tuple[int, int]]] = None,
                  ) -> tuple[Env, list[Diagnostic]]:
    """Check declarations in order, collecting one diagnostic per failing
    declaration and continuing with the rest."""
    diags: list[Diagnostic] = []
    for i, d in enumerate(decls):
        try:
            env = check_decl(env, d)
        except CheckError as e:
            diag = e.diagnostic
            if spans is not None and i < len(spans) and diag.span is None:
                diag = replace(diag, span=spans[i])
            diags.append(diag)
    return env, diags
