"""Recursive-descent parser for the core `.fd` format; terms are read by
precedence climbing over the printer's operator and binder tables, and
declarations by the printer's table of declaration forms.

Declarations end with `;`, comments run `--` to end of line. Binders are
written with names and resolved to de Bruijn indices; `#k` denotes a raw
index relative to the enclosing binders (used for open terms). Constructor
and type-constant names start uppercase, open-function and let names start
lowercase; that convention is what lets the parser resolve free names
without an environment.

A text is lexed once, by one `re.findall`, into two flat lists: the token
kinds and the token texts. `Cursor`, which the surface parser shares,
steps through them by index; a token's line and column are worked out only
when an error or a declaration span asks for them.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from typing import Optional

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

# One regex for every token, tried in this order. Its one group is the
# token; a skipped run (white space or a `--` comment) matches with the
# group empty, and a character no token starts with is a one-character
# token of no kind.
_TOKEN_RE = re.compile(
    r"\s+|--[^\n]*|(#[0-9]+|[0-9]+|[A-Za-z_][A-Za-z0-9_']*|"
    + "|".join(re.escape(s) for s in _SYMBOLS) + r"|.)"
)
_NEWLINE_RE = re.compile("\n")

# token text -> kind for the symbols and keywords; other tokens take theirs
# from their first character, and a `#` with digits after it is a `hash`
_KIND_OF_TEXT = {**{s: s for s in _SYMBOLS}, **dict.fromkeys(KEYWORDS, "kw")}
_KIND_OF_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", "name"),
    **dict.fromkeys(string.digits, "num"),
}


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


class Cursor:
    """A position in a lexed text, the grammar of kinds and the declaration
    loop; shared by the core and the surface parser.

    The text is lexed once into two lists, each token's kind (`name`,
    `kw`, `num`, `hash` or the symbol itself) and its text, ending with an
    `eof` token of empty text. Where a token starts (its
    line and column) is worked out only when an error or a span asks."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._lines: Optional[tuple[list[int], list[int]]] = None
        texts = list(filter(None, _TOKEN_RE.findall(text)))
        kind_of_text, kind_of_first = _KIND_OF_TEXT.get, _KIND_OF_FIRST.get
        kinds = [kind_of_text(tok) or kind_of_first(tok[0])
                 or ("hash" if len(tok) > 1 else None) for tok in texts]
        if None in kinds:
            bad = kinds.index(None)
            self.fail_at(bad, f"unsupported character {texts[bad]!r}")
        kinds.append("eof")
        texts.append("")
        self.kinds: list[str] = kinds
        self.texts: list[str] = texts

    def where(self, i: int) -> tuple[int, int]:
        """The (line, column) token `i` starts at."""
        if self._lines is None:
            starts = [m.start() for m in _TOKEN_RE.finditer(self.text)
                      if m.group(1)]
            starts.append(len(self.text))
            line_starts = [0]
            line_starts += [m.end() for m in _NEWLINE_RE.finditer(self.text)]
            self._lines = starts, line_starts
        starts, line_starts = self._lines
        offset = starts[i]
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def fail_at(self, i: int, message: str,
                expected: frozenset[str] = frozenset()):
        raise ParseError(message, *self.where(i), expected)

    def fail(self, message: str, expected: frozenset[str] = frozenset()):
        self.fail_at(self.pos, message, expected)

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def at_kw(self, *words: str) -> bool:
        # a keyword's text always lexes as a `kw` token
        return self.texts[self.pos] in words

    def advance(self) -> str:
        """The current token's text; moves past it."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            self.unexpected(kind)
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect_kw(self, word: str) -> str:
        if self.texts[self.pos] != word:
            self.unexpected(word)
        self.pos += 1
        return word

    def unexpected(self, expected: str):
        self.fail_at(self.pos,
                     f"unexpected {self.texts[self.pos] or 'end of input'!r}",
                     frozenset({expected}))

    def name(self, upper: Optional[bool] = None) -> str:
        """A declared or bound name: not a generated binder name, and
        starting uppercase or lowercase if `upper` says which."""
        i = self.pos
        text = self.expect("name")
        if RESERVED_NAME.match(text):
            self.fail_at(i, f"{text!r} is reserved for generated binder names")
        if upper is not None and text[0].isupper() != upper:
            case = "uppercase" if upper else "lowercase"
            self.fail_at(i, f"{text!r} must start {case}")
        return text

    def program(self) -> tuple[list, list[int]]:
        """Every declaration up to the end of input, by the subclass's
        `decl`, and the index of the token each starts at."""
        decls, firsts = [], []
        while self.kinds[self.pos] != "eof":
            firsts.append(self.pos)
            decls.append(self.decl())
        return decls, firsts

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


class Parser(Cursor):
    def __init__(self, text: str):
        super().__init__(text)
        self.stack: list[str] = []  # binder names, outer first

    def bound(self, names: list[str], read):
        """`read()` with `names` bound, the last innermost."""
        self.stack += names
        try:
            return read()
        finally:
            del self.stack[len(self.stack) - len(names):]

    # ---------------------------------------------------------- types

    def type_(self) -> Node:
        if self.at_kw("forall"):
            self.advance()
            name = self.expect("name")
            self.expect(":")
            k = self.kind()
            self.expect(".")
            return Forall(k, self.bound([name], self.type_))
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
            return self.resolve_type_name(self.advance())
        if self.at("hash"):
            return TVar(int(self.advance()[1:]) + len(self.stack))
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

    def resolve_type_name(self, name: str) -> Node:
        """The type `name`, the token just read, denotes."""
        if name in self.stack:
            return TVar(self.stack[::-1].index(name))
        if name[0].isupper():
            return TCon(name)
        self.fail_at(self.pos - 1, f"unbound type variable {name!r}")

    # ---------------------------------------------------------- terms

    def term(self) -> Node:
        return self.climb(BINDER)

    def climb(self, level: int) -> Node:
        """A term whose infix operators all bind at `level` or tighter
        (precedence climbing over `printer.INFIX`)."""
        left = self.operand()
        while True:
            op = INFIX.get(self.kinds[self.pos])
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
        text = self.texts[self.pos]
        binder = BINDERS.get(text)
        if binder is not None:
            self.advance()
            name = self.expect("name")
            self.expect(":")
            kind_ann = FIELDS[binder][0][1] is KIND
            ann = self.kind() if kind_ann else self.type_()
            self.expect(".")
            return binder(ann, self.bound([name], self.term))
        if text == "if":
            self.advance()
            scrut = self.term()
            self.expect_kw("is")
            pat = self.pattern()
            self.expect_kw("then")
            cons = self.term()
            self.expect_kw("else")
            alt = self.term()
            return If(scrut, pat, cons, alt)
        if text == "guard":
            self.advance()
            scrut = self.term()
            self.expect_kw("is")
            pat = self.pattern()
            self.expect_kw("then")
            cons = self.term()
            return Guard(scrut, pat, cons)
        if text == "sym":
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
            node = Fst(node) if self.advance() == ".1" else Snd(node)
        return node

    def _at_atom(self) -> bool:
        return (self.kinds[self.pos] in _ATOM_KINDS
                or self.texts[self.pos] in ("refl", "sim"))

    def atom(self) -> Node:
        if self.at("name"):
            return self.resolve_term_name(self.advance())
        if self.at("hash"):
            return Var(int(self.advance()[1:]) + len(self.stack))
        if self.at("num"):
            if self.advance() != "0":
                self.fail_at(self.pos - 1, "numeric literals are not supported "
                             "(only the failure element 0)")
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

    def resolve_term_name(self, name: str) -> Node:
        if name in self.stack:
            return Var(self.stack[::-1].index(name))
        if name[0].isupper():
            return Con(name)
        return Ref(name)

    def pattern(self) -> Pattern:
        head = self.expect("name")
        if not head[0].isupper():
            self.fail_at(self.pos - 1,
                         f"pattern head {head!r} must be a constructor")
        args = []
        while self.at("["):
            self.advance()
            args.append(self.type_())
            self.expect("]")
        return Pattern(head, tuple(args))

    # ---------------------------------------------------- declarations

    def decl(self) -> Decl:
        """One declaration, read by its form in `printer.DECLS`; when two
        forms share the keyword, the name's case picks one."""
        forms = _DECL_FORMS.get(self.texts[self.pos])
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


_ATOM_KINDS = frozenset({"name", "hash", "num", "("})
# keyword -> {name starts uppercase?: (declaration class, its fields)}
_DECL_FORMS: dict[str, dict[bool, tuple]] = {}
for _cls, (_keyword, _upper, _fields) in DECLS.items():
    _DECL_FORMS.setdefault(_keyword, {})[_upper] = _cls, _fields
# grammar -> the `Parser` method that reads it
_READ = {"kind": "kind", "type": "type_", "term": "term"}


def parse_core(text: str) -> list[Decl]:
    return Parser(text).program()[0]


def parse_core_with_spans(text: str) -> tuple[list[Decl],
                                              list[tuple[int, int]]]:
    """The declarations and the (line, column) each starts at."""
    p = Parser(text)
    decls, firsts = p.program()
    return decls, [p.where(i) for i in firsts]


def parse_term(text: str) -> Node:
    p = Parser(text)
    node = p.term()
    p.expect("eof")
    return node


def parse_type(text: str) -> Node:
    p = Parser(text)
    node = p.type_()
    p.expect("eof")
    return node
