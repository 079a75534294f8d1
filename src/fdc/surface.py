"""Surface language: explicit-polymorphism terms with holes and annotations;
data, class (superclasses, functional dependencies, methods), instance, and
let declarations.

Haskell-flavored concrete syntax without layout: bodies are brace/semicolon
delimited, `::` ascribes types, `(_ :: t)` is a hole for an instance
argument, and `C args => t` is sugar for the explicit dictionary arrow
`C args -> t`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .parser import Parser, ParseError
from .printer import print_type
from .syntax import (
    Node, KArr, TVar, TCon, TApp, Forall, Var, Con, Ref, Lam, App, TyLam,
    TyApp, Pattern, If, Hole, Annot, STAR, ARROW, arrow, is_variable_name,
    spine, subnodes, type_spine, un_arrow,
)
from .typecheck import Diagnostic

# The annotation of a lambda binder written without one, which
# `validate_surface` reports: a hole in the place of its type.
UNANNOTATED = Hole(STAR)


# ----------------------------------------------------------- declarations
#
# Types and terms are core nodes (`Hole` and `Annot` included), their names
# resolved as they are read: a class's methods and superclasses over its
# parameters, an instance's head, context and methods over its variables,
# and everything else closed.

class SDecl:
    __slots__ = ()


@dataclass(frozen=True)
class SDataDecl(SDecl):
    name: str
    kind: Node
    ctors: tuple[tuple[str, Node], ...]


@dataclass(frozen=True)
class SClassDecl(SDecl):
    name: str
    params: tuple[tuple[str, Node], ...]  # (name, kind)
    supers: tuple[Node, ...]
    fundeps: tuple[tuple[tuple[int, ...], int], ...]
    methods: tuple[tuple[str, Node], ...]

    @property
    def kind(self) -> Node:
        k: Node = STAR
        for _, pk in reversed(self.params):
            k = KArr(pk, k)
        return k


@dataclass(frozen=True)
class SInstanceDecl(SDecl):
    class_name: str
    ctor_name: Optional[str]
    context: tuple[Node, ...]
    head_args: tuple[Node, ...]
    methods: tuple[tuple[str, Node], ...]
    # the instance's variables, outermost first: in the order each first
    # occurs in the head, then the context
    ivars: tuple[str, ...]


@dataclass(frozen=True)
class SLetDecl(SDecl):
    name: str
    type: Node
    body: Node


# ---------------------------------------------------------------- parser

class SurfaceParser(Parser):
    """Reads declarations into core nodes over `Parser`'s binder stack,
    whose entries here are `(sort, name)` pairs: a name is looked up only
    among the binders of its own sort, "type" or "term", though binders of
    both sorts count towards its index."""

    def binding(self, sort: str, names: list[str], read):
        """`read()` with `names` bound as binders of `sort`."""
        return self.bound([(sort, n) for n in names], read)

    def lookup(self, sort: str, name: str) -> Optional[int]:
        """The index of the innermost binder of `sort` named `name`, or
        None when there is none."""
        key = (sort, name)
        return self.stack[::-1].index(key) if key in self.stack else None

    # ---- types

    def type_(self) -> Node:
        if self.at_kw("forall"):
            self.advance()
            var, kind = self.binder_param()
            self.expect(".")
            return Forall(kind, self.binding("type", [var], self.type_))
        return self.ty_arrow()

    def binder_param(self) -> tuple[str, Node]:
        """`a`, `a :: kind` or `(a :: kind)`."""
        parens = self.at("(")
        if parens:
            self.advance()
        var, kind = self.name(), STAR
        if parens or self.at("::"):
            self.expect("::")
            kind = self.kind()
        if parens:
            self.expect(")")
        return var, kind

    def ty_arrow(self) -> Node:
        left = self.ty_app()
        if self.at("->", "=>"):  # `=>` is sugar for a dictionary arrow
            self.advance()
            return arrow(left, self.type_())
        return left

    def ty_app(self) -> Node:
        f = self.ty_atom()
        while self.at("name", "("):
            f = TApp(f, self.ty_atom())
        return f

    def ty_atom(self) -> Node:
        if self.at("name"):
            return self.resolve_type_name(self.advance())
        if self.at("("):
            self.advance()
            if self.at("->"):
                self.advance()
                self.expect(")")
                return ARROW
            t = self.type_()
            self.expect(")")
            return t
        self.fail("expected a type", frozenset({"name", "("}))

    def resolve_type_name(self, name: str) -> Node:
        """A bound type variable's index, and any other name's type
        constant."""
        i = self.lookup("type", name)
        return TCon(name) if i is None else TVar(i)

    def resolve_term_name(self, name: str) -> Node:
        """A bound term variable's index, and any other name's constructor
        or reference."""
        i = self.lookup("term", name)
        if i is not None:
            return Var(i)
        return Con(name) if name[0].isupper() else Ref(name)

    # ---- terms

    def term(self) -> Node:
        if self.at("\\", "/\\"):  # `\x :: type.` or `/\a :: kind.`
            binder = Lam if self.advance() == "\\" else TyLam
            var = self.name(upper=False)
            ann = UNANNOTATED if binder is Lam else STAR
            if self.at("::"):
                self.advance()
                ann = self.type_() if binder is Lam else self.kind()
            self.expect(".")
            sort = "term" if binder is Lam else "type"
            return binder(ann, self.binding(sort, [var], self.term))
        if self.at_kw("if"):
            self.advance()
            scrut = self.term()
            self.expect_kw("is")
            pat = self.pattern()
            self.expect_kw("then")
            cons = self.term()
            self.expect_kw("else")
            return If(scrut, pat, cons, self.term())
        return self.app()

    def app(self) -> Node:
        f = self.atom()
        while True:
            if self.at("["):
                self.advance()
                t = self.type_()
                self.expect("]")
                f = TyApp(f, t)
            elif self.at("name", "("):
                f = App(f, self.atom())
            else:
                return f

    def atom(self) -> Node:
        if self.at("name"):
            name = self.advance()
            if name == "_":
                self.fail("holes must be written (_ :: type)")
            return self.resolve_term_name(name)
        if self.at("("):
            self.advance()
            if self.texts[self.pos] == "_":
                self.advance()
                self.expect("::")
                t = self.type_()
                self.expect(")")
                return Hole(t)
            inner = self.term()
            if self.at("::"):
                self.advance()
                t = self.type_()
                self.expect(")")
                return Annot(inner, t)
            self.expect(")")
            return inner
        self.fail("expected a term", frozenset({"name", "("}))

    def pattern(self) -> Pattern:
        head = self.name(upper=True)
        args = []
        while self.at("["):
            self.advance()
            args.append(self.type_())
            self.expect("]")
        return Pattern(head, tuple(args))

    # ---- declarations

    def braced(self, item, *args) -> list:
        """`where { item; ... }` with the `where` already consumed; each
        item is read by `item(*args)`."""
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(item(*args))
            self.expect(";")
        self.expect("}")
        return out

    def context_then_head(self) -> tuple[list[Node], Node]:
        """Parse `[preds =>] head-application`, distinguishing the two by the
        `=>` lookahead."""
        preds: list[Node] = []
        first = self.ty_app()
        while self.at("=>"):
            self.advance()
            preds.append(first)
            first = self.ty_app()
        return preds, first

    def decl(self) -> SDecl:
        if self.at_kw("data"):
            self.advance()
            name = self.name(upper=True)
            self.expect("::")
            kind = self.kind()
            ctors: list[tuple[str, Node]] = []
            if self.at_kw("where"):
                self.advance()
                ctors = self.braced(self._signature, True)
            self.expect(";")
            return SDataDecl(name, kind, tuple(ctors))
        if self.at_kw("class"):
            self.advance()
            return self.class_decl()
        if self.at_kw("instance"):
            self.advance()
            return self.instance_decl()
        if self.at_kw("let"):
            self.advance()
            name = self.name(upper=False)
            self.expect("::")
            t = self.type_()
            self.expect("=")
            body = self.term()
            self.expect(";")
            return SLetDecl(name, t, body)
        self.fail("expected a declaration",
                  frozenset({"data", "class", "instance", "let"}))

    def _signature(self, upper: bool) -> tuple[str, Node]:
        """A constructor's (uppercase) or a method's (lowercase) `name ::
        type`."""
        name = self.name(upper)
        self.expect("::")
        return name, self.type_()

    def _method_def_item(self) -> tuple[str, Node]:
        name = self.name(upper=False)
        self.expect("=")
        return name, self.term()

    def class_decl(self) -> SDecl:
        start = self.pos
        supers = self._superclasses()
        name_at = self.pos
        name = self.name(upper=True)
        params: list[tuple[str, Node]] = []
        while self.at("name", "("):
            params.append(self.binder_param())
        param_names = [p for p, _ in params]
        if len(set(param_names)) != len(param_names):
            self.fail_at(name_at, f"class {name!r} has repeated parameters")
        if supers:  # read again, with the parameters they name bound
            end, self.pos = self.pos, start
            supers = self.binding("type", param_names, self._superclasses)
            self.pos = end
        return self.binding("type", param_names,
                            lambda: self._finish_class(name, params, supers))

    def _superclasses(self) -> list[Node]:
        """`Super a =>` or `(S1 a, S2 a) =>`, read up to the `=>`, or
        nothing read."""
        # `class Super a => C a ...` or `class (S1 a, S2 a) => C a ...`
        if self.at("("):
            save = self.pos
            self.advance()
            try:
                preds = [self.ty_app()]
                while self.at(","):
                    self.advance()
                    preds.append(self.ty_app())
                self.expect(")")
                if self.at("=>"):
                    self.advance()
                    return preds
            except ParseError:
                pass
            self.pos = save
        save = self.pos
        try:
            pred = self.ty_app()
            if self.at("=>"):
                self.advance()
                return [pred]
        except ParseError:
            pass
        self.pos = save
        return []

    def _finish_class(self, name, params, supers) -> SDecl:
        fundeps: list[tuple[tuple[int, ...], int]] = []
        if self.at("|"):
            self.advance()
            while True:
                dets = [self._param_index(params)]
                while self.at("name"):
                    dets.append(self._param_index(params))
                self.expect("->")
                determined = self._param_index(params)
                fundeps.append((tuple(dets), determined))
                if self.at(","):
                    self.advance()
                    continue
                break
        methods: list[tuple[str, Node]] = []
        if self.at_kw("where"):
            self.advance()
            methods = self.braced(self._signature, False)
        self.expect(";")
        return SClassDecl(name, tuple(params), tuple(supers),
                          tuple(fundeps), tuple(methods))

    def _param_index(self, params) -> int:
        name = self.expect("name")
        for i, (p, _) in enumerate(params):
            if p == name:
                return i
        self.fail_at(self.pos - 1, f"{name!r} is not a class parameter")

    def instance_decl(self) -> SDecl:
        ctor_name: Optional[str] = None
        if (self.at("name") and self.texts[self.pos][0].isupper()
                and self.kinds[self.pos + 1] == ":"):
            ctor_name = self.name(upper=True)
            self.expect(":")
        start = self.pos
        preds, head = self.context_then_head()
        head_con, head_args = type_spine(head)
        # no class is named `->`: an arrow type, infix or prefix, is no head
        if (not isinstance(head_con, TCon) or is_variable_name(head_con.name)
                or head_con == ARROW and len(head_args) > 1):
            self.fail("instance head must name a class")
        # the head and context again, with the instance's variables bound
        ivars = list(dict.fromkeys(
            n.name for t in head_args + preds for n in subnodes(t)
            if isinstance(n, TCon) and is_variable_name(n.name)))
        self.pos = start
        preds, head = self.binding("type", ivars, self.context_then_head)
        methods: list[tuple[str, Node]] = []
        if self.at_kw("where"):
            self.advance()
            methods = self.binding(
                "type", ivars, lambda: self.braced(self._method_def_item))
        self.expect(";")
        return SInstanceDecl(head_con.name, ctor_name, tuple(preds),
                             tuple(type_spine(head)[1]), tuple(methods),
                             tuple(ivars))


def parse_surface(text: str) -> list[SDecl]:
    return SurfaceParser(text).program()[0]


# ------------------------------------------------------------ validation

def _check_annotations(t: Node, issues: list[Diagnostic], where: str) -> None:
    match t:
        case App(_, _) | TyApp(_, _):
            if not isinstance(spine(t)[0], (Var, Ref, Con, Annot, Hole)):
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: non-variable application head must be annotated"))
            _check_annotations(t.fun, issues, where)
            if isinstance(t, App):
                _check_annotations(t.arg, issues, where)
        case Lam(ann, body):
            if ann == UNANNOTATED:
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: lambda binders must carry a type"))
            _check_annotations(body, issues, where)
        case TyLam(_, body):
            _check_annotations(body, issues, where)
        case If(scrut, _, cons, alt):
            if not isinstance(scrut, (Annot, Var, Ref, Hole)):
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: if scrutinee must be annotated"))
            if not isinstance(cons, (Annot, Var, Ref, Con, Hole)):
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: if consequent must be annotated"))
            for part in (scrut, cons, alt):
                _check_annotations(part, issues, where)
        case Annot(term, _):
            _check_annotations(term, issues, where)
        case _:
            pass


def _eta_shape(t: Node, body: Node, issues: list[Diagnostic],
               where: str) -> None:
    """Leading binders must track the declared type until the body stops
    being a binder at all (prefix discipline, not full eta length)."""
    ty, tm = t, body
    while True:
        arrow_parts = un_arrow(ty)
        match ty, tm:
            case (Forall(_, b), TyLam(_, tb)):
                ty, tm = b, tb
            case (_, Lam(_, lb)) if arrow_parts is not None:
                ty, tm = arrow_parts[1], lb
            case (Forall(), Lam()):
                issues.append(Diagnostic(
                    "eta-shape",
                    f"{where}: term binder where the type expects a type binder"))
                return
            case (_, TyLam()) if arrow_parts is not None:
                issues.append(Diagnostic(
                    "eta-shape",
                    f"{where}: type binder where the type expects a term binder"))
                return
            case (_, Lam()) | (_, TyLam()):
                issues.append(Diagnostic(
                    "eta-shape",
                    f"{where}: more binders than the declared type provides"))
                return
            case _:
                return


def _type_size(t: Node) -> int:
    """Constructor and variable occurrences, counting repetitions; an arrow
    counts only its two sides."""
    arrow_parts = un_arrow(t)
    if arrow_parts is not None:
        return _type_size(arrow_parts[0]) + _type_size(arrow_parts[1])
    match t:
        case TVar(_) | TCon(_):
            return 1
        case TApp(f, a):
            return _type_size(f) + _type_size(a)
        case Forall(_, b):
            return 1 + _type_size(b)
    raise TypeError(t)


def _type_vars(t: Node, depth: int = 0) -> Counter:
    """Free variables, by index, each with its number of occurrences, in
    first-occurrence order."""
    match t:
        case TVar(i):
            return Counter((i - depth,)) if i >= depth else Counter()
        case TApp(f, a):
            return _type_vars(f, depth) + _type_vars(a, depth)
        case Forall(_, body):
            return _type_vars(body, depth + 1)
    return Counter()


def validate_surface(program: list[SDecl]) -> list[Diagnostic]:
    """Annotation placement, binder shape, fundep index bounds, and the
    Paterson termination conditions on instance contexts."""
    issues: list[Diagnostic] = []
    for d in program:
        match d:
            case SClassDecl(name, params, _, fundeps, _):
                for dets, det in fundeps:
                    indices = set(dets) | {det}
                    if any(i >= len(params) or i < 0 for i in indices):
                        issues.append(Diagnostic(
                            "fundep-index",
                            f"class {name!r}: dependency index out of range"))
                    if det in dets:
                        issues.append(Diagnostic(
                            "fundep-index",
                            f"class {name!r}: determined parameter is also "
                            f"a determiner"))
            case SInstanceDecl(class_name, _, context, head_args, methods,
                               ivars):
                where = f"instance {class_name}"
                head_size = sum(_type_size(a) for a in head_args)
                head_occ = sum(map(_type_vars, head_args), Counter())
                for pred in context:
                    if _type_size(pred) - 1 >= head_size:
                        issues.append(Diagnostic(
                            "paterson",
                            f"{where}: context {print_type(pred, ivars)} is "
                            f"not smaller than the instance head"))
                    for v, occ in _type_vars(pred).items():
                        if occ > head_occ[v]:
                            issues.append(Diagnostic(
                                "paterson",
                                f"{where}: {ivars[-1 - v]!r} occurs more "
                                f"often in the context than in the head"))
                for mname, body in methods:
                    mwhere = f"{where}.{mname}"
                    if not isinstance(body, Annot):
                        issues.append(Diagnostic(
                            "annotation-required",
                            f"{mwhere}: instance method bodies must be "
                            f"annotated"))
                    _check_annotations(body, issues, mwhere)
            case SLetDecl(name, t, body):
                _check_annotations(body, issues, f"let {name}")
                _eta_shape(t, body, issues, f"let {name}")
            case _:
                pass
    return issues
