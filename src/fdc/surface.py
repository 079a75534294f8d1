"""Surface language: explicit-polymorphism terms with holes and annotations;
data, class (superclasses, functional dependencies, methods), instance, and
let declarations.

Haskell-flavored concrete syntax without layout: bodies are brace/semicolon
delimited, `::` ascribes types, `(_ :: t)` is a hole for an instance
argument, and `C args => t` is sugar for the explicit dictionary arrow
`C args -> t`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .parser import Cursor, ParseError, tokenize
from .printer import print_kind
from .syntax import Node, KArr, STAR
from .typecheck import Diagnostic


# ---------------------------------------------------------------- types

class SType:
    __slots__ = ()


@dataclass(frozen=True)
class STVar(SType):
    name: str


@dataclass(frozen=True)
class STCon(SType):
    name: str


@dataclass(frozen=True)
class STApp(SType):
    fun: SType
    arg: SType


@dataclass(frozen=True)
class SArrow(SType):
    dom: SType
    cod: SType


@dataclass(frozen=True)
class SForall(SType):
    var: str
    kind: Node
    body: SType


def stype_head(t: SType) -> SType:
    while isinstance(t, STApp):
        t = t.fun
    return t


def stype_args(t: SType) -> list[SType]:
    args = []
    while isinstance(t, STApp):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return args


def stype_vars(t: SType, out: Optional[list[str]] = None) -> list[str]:
    """Free variable names in first-occurrence order."""
    if out is None:
        out = []
    match t:
        case STVar(name):
            if name not in out:
                out.append(name)
        case STApp(f, a):
            stype_vars(f, out)
            stype_vars(a, out)
        case SArrow(d, c):
            stype_vars(d, out)
            stype_vars(c, out)
        case SForall(var, _, body):
            inner: list[str] = []
            stype_vars(body, inner)
            for name in inner:
                if name != var and name not in out:
                    out.append(name)
    return out


# ---------------------------------------------------------------- terms

class STerm:
    __slots__ = ()


@dataclass(frozen=True)
class SVar(STerm):
    name: str


@dataclass(frozen=True)
class SCon(STerm):
    name: str


@dataclass(frozen=True)
class SLam(STerm):
    var: str
    ann: Optional[SType]
    body: STerm


@dataclass(frozen=True)
class STyLam(STerm):
    var: str
    kind: Node
    body: STerm


@dataclass(frozen=True)
class SApp(STerm):
    fun: STerm
    arg: STerm


@dataclass(frozen=True)
class STyApp(STerm):
    fun: STerm
    arg: SType


@dataclass(frozen=True)
class SPat:
    head: str
    type_args: tuple[SType, ...] = ()


@dataclass(frozen=True)
class SIf(STerm):
    scrut: STerm
    pat: SPat
    cons: STerm
    alt: STerm


@dataclass(frozen=True)
class SHole(STerm):
    type: SType


@dataclass(frozen=True)
class SAnnot(STerm):
    term: STerm
    type: SType


# ----------------------------------------------------------- declarations

class SDecl:
    __slots__ = ()


@dataclass(frozen=True)
class SDataDecl(SDecl):
    name: str
    kind: Node
    ctors: tuple[tuple[str, SType], ...]


@dataclass(frozen=True)
class SClassDecl(SDecl):
    name: str
    params: tuple[tuple[str, Node], ...]  # (name, kind)
    supers: tuple[SType, ...]
    fundeps: tuple[tuple[tuple[int, ...], int], ...]
    methods: tuple[tuple[str, SType], ...]

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
    context: tuple[SType, ...]
    head_args: tuple[SType, ...]
    methods: tuple[tuple[str, STerm], ...]


@dataclass(frozen=True)
class SLetDecl(SDecl):
    name: str
    type: SType
    body: STerm


# ---------------------------------------------------------------- parser

class SurfaceParser(Cursor):
    def at_name(self) -> bool:
        return self.cur.kind == "name"

    # ---- types

    def type_(self) -> SType:
        if self.at_kw("forall"):
            self.advance()
            var, kind = self.binder_param()
            self.expect(".")
            return SForall(var, kind, self.type_())
        return self.ty_arrow()

    def binder_param(self) -> tuple[str, Node]:
        if self.at("("):
            self.advance()
            var = self.name()
            self.expect("::")
            kind = self.kind()
            self.expect(")")
            return var, kind
        var = self.name()
        kind: Node = STAR
        if self.at("::"):
            self.advance()
            kind = self.kind()
        return var, kind

    def ty_arrow(self) -> SType:
        left = self.ty_app()
        if self.at("->", "=>"):  # `=>` is sugar for a dictionary arrow
            self.advance()
            return SArrow(left, self.type_())
        return left

    def ty_app(self) -> SType:
        f = self.ty_atom()
        while self.at_name() or self.at("("):
            f = STApp(f, self.ty_atom())
        return f

    def ty_atom(self) -> SType:
        if self.at_name():
            tok = self.advance()
            if tok.text[0].isupper():
                return STCon(tok.text)
            return STVar(tok.text)
        if self.at("("):
            self.advance()
            if self.at("->"):
                self.advance()
                self.expect(")")
                return STCon("->")
            t = self.type_()
            self.expect(")")
            return t
        self.fail("expected a type", frozenset({"name", "("}))

    # ---- terms

    def term(self) -> STerm:
        if self.at("\\"):
            self.advance()
            var = self.name(upper=False)
            ann: Optional[SType] = None
            if self.at("::"):
                self.advance()
                ann = self.type_()
            self.expect(".")
            return SLam(var, ann, self.term())
        if self.at("/\\"):
            self.advance()
            var = self.name(upper=False)
            kind: Node = STAR
            if self.at("::"):
                self.advance()
                kind = self.kind()
            self.expect(".")
            return STyLam(var, kind, self.term())
        if self.at_kw("if"):
            self.advance()
            scrut = self.term()
            self.expect_kw("is")
            pat = self.pattern()
            self.expect_kw("then")
            cons = self.term()
            self.expect_kw("else")
            return SIf(scrut, pat, cons, self.term())
        return self.app()

    def app(self) -> STerm:
        f = self.atom()
        while True:
            if self.at("["):
                self.advance()
                t = self.type_()
                self.expect("]")
                f = STyApp(f, t)
            elif self.at_name() or self.at("("):
                f = SApp(f, self.atom())
            else:
                return f

    def atom(self) -> STerm:
        if self.at_name():
            tok = self.advance()
            if tok.text == "_":
                self.fail("holes must be written (_ :: type)")
            if tok.text[0].isupper():
                return SCon(tok.text)
            return SVar(tok.text)
        if self.at("("):
            self.advance()
            if self.at_name() and self.cur.text == "_":
                self.advance()
                self.expect("::")
                t = self.type_()
                self.expect(")")
                return SHole(t)
            inner = self.term()
            if self.at("::"):
                self.advance()
                t = self.type_()
                self.expect(")")
                return SAnnot(inner, t)
            self.expect(")")
            return inner
        self.fail("expected a term", frozenset({"name", "("}))

    def pattern(self) -> SPat:
        head = self.name(upper=True)
        args = []
        while self.at("["):
            self.advance()
            args.append(self.type_())
            self.expect("]")
        return SPat(head, tuple(args))

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

    def context_then_head(self) -> tuple[list[SType], SType]:
        """Parse `[preds =>] head-application`, distinguishing the two by the
        `=>` lookahead."""
        preds: list[SType] = []
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
            ctors: list[tuple[str, SType]] = []
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

    def _signature(self, upper: bool) -> tuple[str, SType]:
        """A constructor's (uppercase) or a method's (lowercase) `name ::
        type`."""
        name = self.name(upper)
        self.expect("::")
        return name, self.type_()

    def _method_def_item(self) -> tuple[str, STerm]:
        name = self.name(upper=False)
        self.expect("=")
        return name, self.term()

    def class_decl(self) -> SDecl:
        supers: list[SType] = []
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
                    supers = preds
                else:
                    self.pos = save
            except ParseError:
                self.pos = save
        if not supers:
            save = self.pos
            try:
                pred = self.ty_app()
                if self.at("=>"):
                    self.advance()
                    supers = [pred]
                else:
                    self.pos = save
            except ParseError:
                self.pos = save
        name_tok = self.cur
        name = self.name(upper=True)
        params: list[tuple[str, Node]] = []
        while self.at_name() or self.at("("):
            params.append(self.binder_param())
        param_names = [p for p, _ in params]
        if len(set(param_names)) != len(param_names):
            raise ParseError(f"class {name!r} has repeated parameters",
                             name_tok.line, name_tok.col)
        return self._finish_class(name, params, supers)

    def _finish_class(self, name, params, supers) -> SDecl:
        fundeps: list[tuple[tuple[int, ...], int]] = []
        if self.at("|"):
            self.advance()
            while True:
                dets = [self._param_index(params)]
                while self.at_name():
                    dets.append(self._param_index(params))
                self.expect("->")
                determined = self._param_index(params)
                fundeps.append((tuple(dets), determined))
                if self.at(","):
                    self.advance()
                    continue
                break
        methods: list[tuple[str, SType]] = []
        if self.at_kw("where"):
            self.advance()
            methods = self.braced(self._signature, False)
        self.expect(";")
        return SClassDecl(name, tuple(params), tuple(supers),
                          tuple(fundeps), tuple(methods))

    def _param_index(self, params) -> int:
        tok = self.expect("name")
        for i, (p, _) in enumerate(params):
            if p == tok.text:
                return i
        raise ParseError(f"{tok.text!r} is not a class parameter",
                         tok.line, tok.col)

    def instance_decl(self) -> SDecl:
        ctor_name: Optional[str] = None
        if (self.at_name() and self.cur.text[0].isupper()
                and self.tokens[self.pos + 1].kind == ":"):
            ctor_name = self.name(upper=True)
            self.expect(":")
        preds, head = self.context_then_head()
        head_con = stype_head(head)
        if not isinstance(head_con, STCon):
            self.fail("instance head must name a class")
        methods: list[tuple[str, STerm]] = []
        if self.at_kw("where"):
            self.advance()
            methods = self.braced(self._method_def_item)
        self.expect(";")
        return SInstanceDecl(head_con.name, ctor_name, tuple(preds),
                             tuple(stype_args(head)), tuple(methods))


def parse_surface(text: str) -> list[SDecl]:
    return SurfaceParser(tokenize(text)).program_with_spans()[0]


# ------------------------------------------- type printer, for diagnostics

def print_stype(t: SType, level: int = 0) -> str:
    # levels: 0 forall/arrow, 1 app, 2 atom
    match t:
        case STVar(name) | STCon(name):
            return "(->)" if name == "->" else name
        case SForall(var, kind, body):
            s = f"forall ({var} :: {print_kind(kind)}). {print_stype(body)}"
            return f"({s})" if level > 0 else s
        case SArrow(dom, cod):
            s = f"{print_stype(dom, 1)} -> {print_stype(cod)}"
            return f"({s})" if level > 0 else s
        case STApp(f, a):
            s = f"{print_stype(f, 1)} {print_stype(a, 2)}"
            return f"({s})" if level > 1 else s
    raise TypeError(f"not a surface type: {t!r}")


# ------------------------------------------------------------ validation

def _spine_head_term(t: STerm) -> STerm:
    while True:
        match t:
            case SApp(f, _) | STyApp(f, _):
                t = f
            case _:
                return t


def _check_annotations(t: STerm, issues: list[Diagnostic], where: str) -> None:
    match t:
        case SApp(_, _) | STyApp(_, _):
            head = _spine_head_term(t)
            if not isinstance(head, (SVar, SCon, SAnnot, SHole)):
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: non-variable application head must be annotated"))
            match t:
                case SApp(f, a):
                    _check_annotations(f, issues, where)
                    _check_annotations(a, issues, where)
                case STyApp(f, _):
                    _check_annotations(f, issues, where)
        case SLam(_, ann, body):
            if ann is None:
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: lambda binders must carry a type"))
            _check_annotations(body, issues, where)
        case STyLam(_, _, body):
            _check_annotations(body, issues, where)
        case SIf(scrut, _, cons, alt):
            if not isinstance(scrut, (SAnnot, SVar, SHole)):
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: if scrutinee must be annotated"))
            if not isinstance(cons, (SAnnot, SVar, SCon, SHole)):
                issues.append(Diagnostic(
                    "annotation-required",
                    f"{where}: if consequent must be annotated"))
            _check_annotations(scrut, issues, where)
            _check_annotations(cons, issues, where)
            _check_annotations(alt, issues, where)
        case SAnnot(term, _):
            _check_annotations(term, issues, where)
        case _:
            pass


def _eta_shape(t: SType, body: STerm, issues: list[Diagnostic],
               where: str) -> None:
    """Leading binders must track the declared type until the body stops
    being a binder at all (prefix discipline, not full eta length)."""
    ty, tm = t, body
    while True:
        match ty, tm:
            case (SForall(_, _, b), STyLam(_, _, tb)):
                ty, tm = b, tb
            case (SArrow(_, c), SLam(_, _, lb)):
                ty, tm = c, lb
            case (SForall(_, _, _), SLam(_, _, _)):
                issues.append(Diagnostic(
                    "eta-shape",
                    f"{where}: term binder where the type expects a type binder"))
                return
            case (SArrow(_, _), STyLam(_, _, _)):
                issues.append(Diagnostic(
                    "eta-shape",
                    f"{where}: type binder where the type expects a term binder"))
                return
            case (_, SLam(_, _, _)) | (_, STyLam(_, _, _)):
                issues.append(Diagnostic(
                    "eta-shape",
                    f"{where}: more binders than the declared type provides"))
                return
            case _:
                return


def _type_size(t: SType) -> int:
    """Constructor and variable occurrences, counting repetitions."""
    match t:
        case STVar(_) | STCon(_):
            return 1
        case STApp(f, a) | SArrow(f, a):
            return _type_size(f) + _type_size(a)
        case SForall(_, _, b):
            return 1 + _type_size(b)
    raise TypeError(t)


def _var_occurrences(t: SType, name: str) -> int:
    match t:
        case STVar(n):
            return 1 if n == name else 0
        case STCon(_):
            return 0
        case STApp(f, a) | SArrow(f, a):
            return _var_occurrences(f, name) + _var_occurrences(a, name)
        case SForall(v, _, b):
            return 0 if v == name else _var_occurrences(b, name)
    raise TypeError(t)


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
            case SInstanceDecl(class_name, _, context, head_args, methods):
                where = f"instance {class_name}"
                head_size = sum(_type_size(a) for a in head_args)
                head_vars = []
                for a in head_args:
                    stype_vars(a, head_vars)
                for pred in context:
                    if _type_size(pred) - 1 >= head_size:
                        issues.append(Diagnostic(
                            "paterson",
                            f"{where}: context {print_stype(pred)} is not "
                            f"smaller than the instance head"))
                    for v in stype_vars(pred):
                        pred_occ = _var_occurrences(pred, v)
                        head_occ = sum(_var_occurrences(a, v)
                                       for a in head_args)
                        if pred_occ > head_occ:
                            issues.append(Diagnostic(
                                "paterson",
                                f"{where}: {v!r} occurs more often in the "
                                f"context than in the head"))
                for mname, body in methods:
                    mwhere = f"{where}.{mname}"
                    if not isinstance(body, SAnnot):
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
