"""Recursive-descent parser for the core `.fd` format; terms are read by
precedence climbing over the printer's operator and binder tables, and
declarations by the printer's table of declaration forms.

Declarations end with `;`, comments run `--` to end of line. Binders are
written with names and resolved to de Bruijn indices; `#k` denotes a raw
index relative to the enclosing binders (used for open terms). Constructor
and type-constant names start uppercase, open-function and let names start
lowercase; that convention is what lets the parser resolve free names
without an environment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .printer import (
    BINDER, BINDERS, CAPP, DECLS, INFIX, TERM_PREFIX, TYPE_PREFIX,
)
from .syntax import (
    Node, KArr, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, App, TyApp,
    Pattern, If, Guard, ZERO, Refl, Sym, Fst, Snd, CInst, Sim, Decl, FIELDS,
    KIND, STAR, ARROW, arrow,
)

KEYWORDS = {
    "data", "ctor", "open", "method", "instance", "let",
    "forall", "forallc", "if", "is", "then", "else", "guard",
    "refl", "sym", "sim",
    # surface-only keywords, reserved here so the shared lexer treats them
    # uniformly
    "class", "where",
}

RESERVED_NAME = re.compile(f"^[{TERM_PREFIX}{TYPE_PREFIX}][0-9]+$")

_SYMBOLS = [
    "@[", ";;", "<+>", "|>", "->", "/\\", ".1", ".2", "::", "=>",
    "~", "@", ";", ":", ".", ",", "(", ")", "[", "]", "\\", "*", "=",
    "{", "}", "|",
]

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<hash>#[0-9]+)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>" + "|".join(re.escape(s) for s in _SYMBOLS) + r")"
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int,
                 expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"{line}:{col}"
        exp = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{where}: {message}{exp}")


class Token(NamedTuple):
    kind: str  # 'name' | 'kw' | 'num' | 'hash' | a symbol | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0  # line_start: offset of the line's start
    for m in _TOKEN_RE.finditer(text):
        start, end = m.span()
        if start != pos:  # finditer skipped a character no token matches
            break
        pos = end
        kind = m.lastgroup
        if kind == "ws":
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
        elif kind != "comment":
            lexeme = m.group()
            if kind == "name":
                if lexeme in KEYWORDS:
                    kind = "kw"
            elif kind == "sym":
                kind = lexeme
            append(Token(kind, lexeme, line, start - line_start + 1))
    if pos < len(text):
        raise ParseError(f"unsupported character {text[pos]!r}", line,
                         pos - line_start + 1)
    append(Token("eof", "", line, pos - line_start + 1))
    return tokens


@dataclass
class Cursor:
    """A position in a token list, the grammar of kinds and the declaration
    loop; shared by the core and the surface parser."""

    tokens: list[Token]
    pos: int = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.cur.kind in kinds

    def at_kw(self, *words: str) -> bool:
        return self.cur.kind == "kw" and self.cur.text in words

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(f"unexpected {self.cur.text or 'end of input'!r}",
                             self.cur.line, self.cur.col, frozenset({kind}))
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            raise ParseError(f"unexpected {self.cur.text or 'end of input'!r}",
                             self.cur.line, self.cur.col, frozenset({word}))
        return self.advance()

    def fail(self, message: str, expected: frozenset[str] = frozenset()):
        raise ParseError(message, self.cur.line, self.cur.col, expected)

    def name(self, upper: Optional[bool] = None) -> str:
        """A declared or bound name: not a generated binder name, and
        starting uppercase or lowercase if `upper` says which."""
        tok = self.expect("name")
        text = tok.text
        if RESERVED_NAME.match(text):
            raise ParseError(f"{text!r} is reserved for generated binder names",
                             tok.line, tok.col)
        if upper is not None and text[0].isupper() != upper:
            case = "uppercase" if upper else "lowercase"
            raise ParseError(f"{text!r} must start {case}", tok.line, tok.col)
        return text

    def program_with_spans(self) -> tuple[list, list[tuple[int, int]]]:
        """Every declaration up to the end of input, by the subclass's
        `decl`, and the (line, column) each starts at."""
        decls, spans = [], []
        while not self.at("eof"):
            spans.append((self.cur.line, self.cur.col))
            decls.append(self.decl())
        return decls, spans

    # ---------------------------------------------------------- kinds

    def kind(self) -> Node:
        left = self.kind_atom()
        if self.at("->"):
            self.advance()
            return KArr(left, self.kind())
        return left

    def kind_atom(self) -> Node:
        if self.at("*"):
            self.advance()
            return STAR
        if self.at("("):
            self.advance()
            k = self.kind()
            self.expect(")")
            return k
        self.fail("expected a kind", frozenset({"*", "("}))


@dataclass
class Parser(Cursor):
    stack: list[str] = field(default_factory=list)  # binder names, outer first

    # ---------------------------------------------------------- types

    def type_(self) -> Node:
        if self.at_kw("forall"):
            self.advance()
            name = self.expect("name").text
            self.expect(":")
            k = self.kind()
            self.expect(".")
            self.stack.append(name)
            try:
                body = self.type_()
            finally:
                self.stack.pop()
            return Forall(k, body)
        return self.ty_arrow()

    def ty_arrow(self) -> Node:
        left = self.ty_eq()
        if self.at("->"):
            self.advance()
            return arrow(left, self.type_())
        return left

    def ty_eq(self) -> Node:
        left = self.ty_app()
        if self.at("~"):
            self.advance()
            kind = STAR
            if self.at("["):
                self.advance()
                kind = self.kind()
                self.expect("]")
            right = self.ty_app()
            return EqTy(left, right, kind)
        return left

    def ty_app(self) -> Node:
        f = self.ty_atom()
        while self.at("name", "hash", "("):
            f = TApp(f, self.ty_atom())
        return f

    def ty_atom(self) -> Node:
        if self.at("name"):
            tok = self.advance()
            return self.resolve_type_name(tok)
        if self.at("hash"):
            tok = self.advance()
            return TVar(int(tok.text[1:]) + len(self.stack))
        if self.at("("):
            self.advance()
            if self.at("->"):
                self.advance()
                self.expect(")")
                return ARROW
            t = self.type_()
            self.expect(")")
            return t
        self.fail("expected a type", frozenset({"name", "(", "#"}))

    def resolve_type_name(self, tok: Token) -> Node:
        name = tok.text
        for depth, bound in enumerate(reversed(self.stack)):
            if bound == name:
                return TVar(depth)
        if name[0].isupper():
            return TCon(name)
        raise ParseError(f"unbound type variable {name!r}", tok.line, tok.col)

    # ---------------------------------------------------------- terms

    def term(self) -> Node:
        return self.climb(BINDER)

    def climb(self, level: int) -> Node:
        """A term whose infix operators all bind at `level` or tighter
        (precedence climbing over `printer.INFIX`)."""
        left = self.operand()
        while True:
            op = INFIX.get(self.cur.kind)
            if op is not None and op[1] >= level:
                self.advance()
                cls, op_level, right = op
                left = cls(left, self.climb(op_level + (not right)))
            elif self.at("@[") and level <= CAPP:  # the one postfix form
                self.advance()
                t = self.type_()
                self.expect("]")
                left = CInst(left, t)
            else:
                return left

    def operand(self) -> Node:
        """A binder form, `if`, `guard` or `sym`, each of which extends as
        far right as it can, or an application with its projections."""
        binder = BINDERS.get(self.cur.text)
        if binder is not None:
            self.advance()
            name = self.expect("name").text
            self.expect(":")
            kind_ann = FIELDS[binder][0][1] is KIND
            ann = self.kind() if kind_ann else self.type_()
            self.expect(".")
            self.stack.append(name)
            body = self.term()
            self.stack.pop()
            return binder(ann, body)
        if self.at_kw("if"):
            self.advance()
            scrut = self.term()
            self.expect_kw("is")
            pat = self.pattern()
            self.expect_kw("then")
            cons = self.term()
            self.expect_kw("else")
            alt = self.term()
            return If(scrut, pat, cons, alt)
        if self.at_kw("guard"):
            self.advance()
            scrut = self.term()
            self.expect_kw("is")
            pat = self.pattern()
            self.expect_kw("then")
            cons = self.term()
            return Guard(scrut, pat, cons)
        if self.at_kw("sym"):
            self.advance()
            return Sym(self.operand())
        node = self.atom()
        while True:
            if self.at("["):
                self.advance()
                t = self.type_()
                self.expect("]")
                node = TyApp(node, t)
            elif self._at_atom():
                node = App(node, self.atom())
            else:
                break
        while self.at(".1", ".2"):
            node = Fst(node) if self.advance().kind == ".1" else Snd(node)
        return node

    def _at_atom(self) -> bool:
        return (self.at("name", "hash", "num", "(")
                or self.at_kw("refl", "sim"))

    def atom(self) -> Node:
        if self.at("name"):
            tok = self.advance()
            return self.resolve_term_name(tok)
        if self.at("hash"):
            tok = self.advance()
            return Var(int(tok.text[1:]) + len(self.stack))
        if self.at("num"):
            tok = self.advance()
            if tok.text != "0":
                raise ParseError("numeric literals are not supported "
                                 "(only the failure element 0)",
                                 tok.line, tok.col)
            return ZERO
        if self.at_kw("refl"):
            self.advance()
            self.expect("(")
            t = self.type_()
            self.expect(")")
            return Refl(t)
        if self.at_kw("sim"):
            self.advance()
            self.expect("(")
            l = self.term()
            self.expect(",")
            r = self.term()
            self.expect(")")
            return Sim(l, r)
        if self.at("("):
            self.advance()
            m = self.term()
            self.expect(")")
            return m
        self.fail("expected a term",
                  frozenset({"name", "0", "refl", "sim", "("}))

    def resolve_term_name(self, tok: Token) -> Node:
        name = tok.text
        for depth, bound in enumerate(reversed(self.stack)):
            if bound == name:
                return Var(depth)
        if name[0].isupper():
            return Con(name)
        return Ref(name)

    def pattern(self) -> Pattern:
        tok = self.expect("name")
        if not tok.text[0].isupper():
            raise ParseError(f"pattern head {tok.text!r} must be a constructor",
                             tok.line, tok.col)
        args = []
        while self.at("["):
            self.advance()
            args.append(self.type_())
            self.expect("]")
        return Pattern(tok.text, tuple(args))

    # ---------------------------------------------------- declarations

    def decl(self) -> Decl:
        """One declaration, read by its form in `printer.DECLS`; when two
        forms share the keyword, the name's case picks one."""
        forms = _DECL_FORMS.get(self.cur.text)
        if forms is None:
            self.fail("expected a declaration", frozenset(_DECL_FORMS))
        self.advance()
        upper = next(iter(forms)) if len(forms) == 1 else None
        name = self.name(upper)
        cls, fields = forms[name[0].isupper()]
        values = [name]
        for _, sep, grammar in fields:
            self.expect(sep)
            values.append(getattr(self, _READ[grammar])())
        self.expect(";")
        return cls(*values)


# keyword -> {name starts uppercase?: (declaration class, its fields)}
_DECL_FORMS: dict[str, dict[bool, tuple]] = {}
for _cls, (_keyword, _upper, _fields) in DECLS.items():
    _DECL_FORMS.setdefault(_keyword, {})[_upper] = _cls, _fields
# grammar -> the `Parser` method that reads it
_READ = {"kind": "kind", "type": "type_", "term": "term"}


def parse_core(text: str) -> list[Decl]:
    return Parser(tokenize(text)).program_with_spans()[0]


def parse_core_with_spans(text: str) -> tuple[list[Decl],
                                              list[tuple[int, int]]]:
    return Parser(tokenize(text)).program_with_spans()


def parse_term(text: str) -> Node:
    p = Parser(tokenize(text))
    node = p.term()
    p.expect("eof")
    return node


def parse_type(text: str) -> Node:
    p = Parser(tokenize(text))
    node = p.type_()
    p.expect("eof")
    return node
