"""Reference term parser, kept as the differential oracle for the
precedence-climbing term parser in `fdc.parser`.

`OracleParser` keeps the original grammar of core terms: one method per
precedence level (`term` → `choice` → `cast` → `trans` → `capp` → `prefix`
→ `proj` → `app`), each of whose operands goes back to `term` when it starts
with a binder, `if` or `guard` (`_operand`). It shares the lexer, the atoms,
types, kinds, patterns and declarations with the parser under test, and its
atoms come back to its own `term`, so a whole term is read by the old code.

`reference_tokenize` is the original lexer, one `Token` per regex match with
its line and column counted as it goes; the lexer in `fdc.parser` is
checked against it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from fdc.parser import KEYWORDS, ParseError, Parser, _SYMBOLS
from fdc.syntax import (
    Node, Lam, App, TyLam, TyApp, Cast, If, Guard, Choice, Sym, Trans, CApp,
    Fst, Snd, Univ, CInst, Decl,
)

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<hash>#[0-9]+)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>" + "|".join(re.escape(s) for s in _SYMBOLS) + r")"
)


class Token(NamedTuple):
    kind: str  # 'name' | 'kw' | 'num' | 'hash' | a symbol | 'eof'
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[Token]:
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


class OracleParser(Parser):
    def _at_binder(self) -> bool:
        return (self.at("\\", "/\\")
                or self.at_kw("forallc", "if", "guard"))

    def term(self) -> Node:
        if self.at("\\"):
            self.advance()
            name = self.expect("name")
            self.expect(":")
            ann = self.type_()
            self.expect(".")
            return Lam(ann, self._under(name))
        if self.at("/\\"):
            self.advance()
            name = self.expect("name")
            self.expect(":")
            k = self.kind()
            self.expect(".")
            return TyLam(k, self._under(name))
        if self.at_kw("forallc"):
            self.advance()
            name = self.expect("name")
            self.expect(":")
            k = self.kind()
            self.expect(".")
            return Univ(k, self._under(name))
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
        return self.choice()

    def _under(self, name: str) -> Node:
        self.stack.append(name)
        try:
            return self.term()
        finally:
            self.stack.pop()

    def _operand(self, sub) -> Node:
        if self._at_binder():
            return self.term()
        return sub()

    def choice(self) -> Node:
        left = self._operand(self.cast)
        if self.at("<+>"):
            self.advance()
            return Choice(left, self.term())
        return left

    def cast(self) -> Node:
        left = self._operand(self.trans)
        while self.at("|>"):
            self.advance()
            left = Cast(left, self._operand(self.trans))
        return left

    def trans(self) -> Node:
        left = self._operand(self.capp)
        if self.at(";;"):
            self.advance()
            return Trans(left, self._operand(self.trans))
        return left

    def capp(self) -> Node:
        left = self._operand(self.prefix)
        while self.at("@", "@["):
            if self.at("@"):
                self.advance()
                left = CApp(left, self._operand(self.prefix))
            else:
                self.advance()
                t = self.type_()
                self.expect("]")
                left = CInst(left, t)
        return left

    def prefix(self) -> Node:
        if self.at_kw("sym"):
            self.advance()
            return Sym(self._operand(self.prefix))
        return self.proj()

    def proj(self) -> Node:
        node = self.app()
        while self.at(".1", ".2"):
            node = Fst(node) if self.advance() == ".1" else Snd(node)
        return node

    def app(self) -> Node:
        f = self.atom()
        while True:
            if self.at("["):
                self.advance()
                t = self.type_()
                self.expect("]")
                f = TyApp(f, t)
            elif self._at_atom():
                f = App(f, self.atom())
            else:
                return f


def oracle_parse_core(text: str) -> list[Decl]:
    return OracleParser(text).program()[0]


def oracle_parse_term(text: str) -> Node:
    p = OracleParser(text)
    node = p.term()
    p.expect("eof")
    return node
