import random
from dataclasses import fields

import pytest

from fdc import printer
from fdc.corpus import corpus_text
from fdc.parser import (
    ParseError, parse_core, parse_term, parse_type, tokenize,
)
from fdc.printer import print_core, print_node, print_term, print_type
from fdc.propcheck import GenConfig, gen_node, gen_well_typed
from fdc.syntax import (
    App, CApp, Cast, Choice, CInst, Con, CtorDecl, DataDecl, EqTy, Forall,
    Fst, Guard, If, InstanceDecl, KArr, Lam, LetDecl, MethodDecl,
    OpenCtorDecl, OpenTypeDecl, Pattern, Ref, Refl, Sim, Snd, Star, Sym,
    TApp, TCon, Trans, TVar, TyApp, TyLam, Univ, Var, Zero, ZERO, STAR,
    BINDER, DATA, FIELDS, KIND, OPEN, PATTERN, Node, arrow, node_eq,
)

from parser_oracle import oracle_parse_core, oracle_parse_term
from test_cli import seeded_corpus_edits


def test_parse_open_type_decl():
    [decl] = parse_core("open Eq : * -> *;")
    assert decl == OpenTypeDecl("Eq", KArr(STAR, STAR))


def test_parse_polymorphic_identity_let():
    [decl] = parse_core("let id : forall t:*. t -> t = /\\t:*. \\x:t. x;")
    assert decl.type == Forall(STAR, arrow(TVar(0), TVar(0)))
    assert decl.body == TyLam(STAR, Lam(TVar(0), Var(0)))


def test_parse_instance_colon_is_open_ctor():
    [decl] = parse_core("instance EqBool : forall t:*. (Bool ~ t) -> Eq t;")
    assert isinstance(decl, OpenCtorDecl)
    assert decl.name == "EqBool"
    assert decl.type == Forall(
        STAR, arrow(EqTy(TCon("Bool"), TVar(0), STAR),
                    TApp(TCon("Eq"), TVar(0))))


_DECL_FORMS = [
    (DataDecl, "data Maybe : * -> *;"),
    (OpenTypeDecl, "open Eq : * -> *;"),
    (CtorDecl, "ctor Just : forall t0:*. t0 -> Maybe t0;"),
    (OpenCtorDecl, "instance EqBool : forall t0:*. Bool ~ t0 -> Eq t0;"),
    (MethodDecl, "method eq : forall t0:*. Eq t0 -> t0 -> t0 -> Bool;"),
    (InstanceDecl, "instance eq = /\\t0:*. \\x0:Eq t0. "
                   "guard x0 is EqBool [t0] then 0;"),
    (LetDecl, "let id : forall t0:*. t0 -> t0 = /\\t0:*. \\x0:t0. x0;"),
]


@pytest.mark.parametrize("cls, text", _DECL_FORMS,
                         ids=[cls.__name__ for cls, _ in _DECL_FORMS])
def test_declaration_form_round_trips(cls, text):
    [decl] = parse_core(text)
    assert type(decl) is cls
    assert print_core([decl]) == text + "\n"


def test_every_declaration_class_has_a_form():
    assert {cls for cls, _ in _DECL_FORMS} == set(printer.DECLS)


def _parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_core(text)
    e = exc.value
    return e.line, e.col, e.message, e.expected


def test_instance_name_case_picks_the_separator():
    # an uppercase name is an open constructor, which expects `:`
    assert _parse_error("instance FMM ::forall t0:*. F t0;") == (
        1, 14, "unexpected '::'", frozenset({":"}))
    assert _parse_error("instance Foo = 0;") == (
        1, 14, "unexpected '='", frozenset({":"}))
    # a lowercase one is an instance of an open function, which expects `=`
    assert _parse_error("instance foo : Bool;") == (
        1, 14, "unexpected ':'", frozenset({"="}))


def test_openctor_is_a_name():
    [decl] = parse_core("method openctor : Bool;")
    assert decl == MethodDecl("openctor", TCon("Bool"))
    line, col, message, expected = _parse_error("openctor K : Bool;")
    assert (line, col, message) == (1, 1, "expected a declaration")
    assert expected == {"data", "open", "ctor", "method", "instance", "let"}


def test_print_trivial_forms():
    assert print_term(ZERO) == "0"
    assert print_term(Refl(TCon("Bool"))) == "refl(Bool)"


def test_equality_kind_annotation_defaults_to_star():
    assert parse_type("Bool ~ Bool") == EqTy(TCon("Bool"), TCon("Bool"), STAR)
    annotated = parse_type("Maybe ~[* -> *] Maybe")
    assert annotated.kind == KArr(STAR, STAR)
    assert print_type(annotated) == "Maybe ~[* -> *] Maybe"


def test_arrow_sugar_and_constant():
    assert parse_type("(->)") == TCon("->")
    assert parse_type("Bool -> Bool") == arrow(TCon("Bool"), TCon("Bool"))
    partial = TApp(TCon("->"), TCon("Bool"))
    assert parse_type(print_type(partial)) == partial


def test_node_eq_alpha_equivalence_is_structural():
    a = parse_type("forall t:*. t -> t")
    b = parse_type("forall u:*. u -> u")
    assert node_eq(a, b)
    assert not node_eq(parse_type("Bool"), parse_type("Int"))
    eq = parse_type("Eq Bool ~ Eq Bool")
    assert node_eq(eq, eq)


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_core("data : *;")
    assert exc.value.line == 1
    assert exc.value.col > 1


def test_token_positions_after_comments_and_blank_lines():
    text = ("-- a comment\n"
            "--   over two lines\n"
            "data T : *;  -- trailing\n"
            "\n"
            "\t ctor K : T;\n"
            "  $")
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert (exc.value.line, exc.value.col) == (6, 3)
    got = [(t.kind, t.text, t.line, t.col) for t in tokenize(text[:-1])]
    assert got == [
        ("kw", "data", 3, 1), ("name", "T", 3, 6), (":", ":", 3, 8),
        ("*", "*", 3, 10), (";", ";", 3, 11),
        ("kw", "ctor", 5, 3), ("name", "K", 5, 8), (":", ":", 5, 10),
        ("name", "T", 5, 12), (";", ";", 5, 13), ("eof", "", 6, 3),
    ]


def test_reserved_binder_names_rejected():
    with pytest.raises(ParseError):
        parse_core("let x0 : Bool = True;")
    with pytest.raises(ParseError):
        parse_core("method t12 : Bool;")
    # the reserved shape is lowercase-only; uppercase names are fine
    parse_core("data T0 : *;")


def test_lowercase_type_constant_rejected():
    with pytest.raises(ParseError):
        parse_type("bool")


def test_precedence_application_capp_trans_choice():
    t = parse_term("a ;; b @ c <+> d".replace("a", "#0").replace(
        "b", "#1").replace("c", "#2").replace("d", "#3"))
    # <+> loosest, then ;;, then @
    assert t == Choice(Trans(Var(0), CApp(Var(1), Var(2))), Var(3))


def test_every_grammar_constructor_prints_and_reparses():
    b = TCon("Bool")
    samples = [
        STAR, KArr(STAR, STAR),
        TVar(0), b, TApp(TCon("Maybe"), b), EqTy(b, b, STAR),
        Forall(STAR, TVar(0)),
        Var(0), Con("True"), Ref("lte"),
        Lam(b, Var(0)), App(Con("Just"), Con("True")),
        TyLam(STAR, Con("True")), TyApp(Con("Nothing"), b),
        Cast(Con("True"), Refl(b)),
        If(Var(0), Pattern("True", ()), Con("False"), Con("True")),
        If(Var(0), Pattern("Just", (b,)), Lam(b, Var(0)), Con("True")),
        Guard(Var(0), Pattern("EqBool", (b,)), Lam(EqTy(b, b, STAR), Var(0))),
        ZERO, Choice(Con("True"), ZERO),
        Refl(b), Sym(Refl(b)), Trans(Refl(b), Refl(b)),
        CApp(Refl(TCon("Maybe")), Refl(b)),
        Fst(Refl(TApp(TCon("Maybe"), b))), Snd(Refl(TApp(TCon("Maybe"), b))),
        Univ(STAR, Refl(TVar(0))),
        CInst(Refl(Forall(STAR, TVar(0))), b),
        Sim(Refl(b), Refl(b)),
    ]
    for node in samples:
        printed = print_node(node)
        if isinstance(node, (Star, KArr)):
            assert parse_core(f"data D : {printed};")[0].kind == node
        elif isinstance(node, (TVar, TCon, TApp, EqTy, Forall)):
            assert parse_type(printed) == node
        else:
            assert parse_term(printed) == node, printed


def test_round_trip_on_random_untyped_nodes():
    rng = random.Random(11)
    for _ in range(300):
        node = gen_node(rng, 10)
        assert parse_term(print_term(node)) == node


def test_round_trip_on_generated_well_typed_terms():
    cfg = GenConfig(seed=5, size=25)
    for i in range(200):
        _, term, ty = gen_well_typed(cfg, i)
        assert parse_term(print_term(term)) == term
        assert parse_type(print_type(ty)) == ty


def test_round_trip_whole_program(superclasses_core):
    printed = print_core(superclasses_core)
    assert parse_core(printed) == superclasses_core


def test_node_eq_equivalence_relation():
    cfg = GenConfig(seed=13, size=12)
    nodes = [gen_well_typed(cfg, i)[1] for i in range(30)]
    for n in nodes:
        assert node_eq(n, n)
    for a in nodes:
        for b in nodes:
            assert node_eq(a, b) == node_eq(b, a)
            if node_eq(a, b):
                for c in nodes:
                    if node_eq(b, c):
                        assert node_eq(a, c)


def test_free_indices_print_env_relative():
    # under one binder, index 1 escapes the term and prints as #0
    t = Lam(TCon("Bool"), Var(1))
    assert print_term(t) == "\\x0:Bool. #0"
    assert parse_term(print_term(t)) == t


def test_node_hash_is_cached_and_structural():
    def build():
        return App(Lam(TCon("Bool"), Var(0)), Choice(Con("True"), ZERO))

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a in {b} and b in {a}
    # the same hash whether the parent or a child is hashed first
    parent_first, child_first = build(), build()
    hash(parent_first)
    hash(child_first.arg)
    hash(child_first.fun.body)
    assert hash(child_first) == hash(parent_first)
    assert hash(child_first.arg) == hash(parent_first.arg)
    assert hash(child_first.fun) == hash(parent_first.fun)


def test_field_table_classifies_every_field_once():
    assert set(FIELDS) == set(Node.__subclasses__())
    where: dict[str, set[str]] = {}
    for cls, shape in FIELDS.items():
        assert [name for name, _ in shape] == [f.name for f in fields(cls)]
        roles = {role for _, role in shape}
        assert roles <= {OPEN, BINDER, KIND, PATTERN, DATA}
        # a leaf holds data only; the reduction oracle's `map_children`
        # returns it as it is
        assert DATA not in roles or roles == {DATA}
        for name, role in shape:
            where.setdefault(role, set()).add(f"{cls.__name__}.{name}")
    assert where[BINDER] == {"Forall.body", "Lam.body", "TyLam.body",
                             "Univ.body"}
    assert where[KIND] == {"KArr.left", "KArr.right", "EqTy.kind",
                           "Forall.kind", "TyLam.kind", "Univ.kind"}
    assert where[PATTERN] == {"If.pat", "Guard.pat"}
    assert where[DATA] == {"TVar.index", "Var.index", "TCon.name",
                           "Con.name", "Ref.name"}


class _NoisyPrinter(printer._Printer):
    """Prints each subterm with redundant parentheses with probability
    `extra`, and without the parentheses it needs with probability `drop`,
    which leaves binders, `if`, `guard` and `sym` as bare operands."""

    def __init__(self, rng: random.Random, extra: float, drop: float):
        super().__init__()
        self.rng, self.extra, self.drop = rng, extra, drop

    def tm(self, m: Node, level: int = 0) -> str:
        r = self.rng.random()
        if r < self.extra:
            return f"({super().tm(m, level)})"
        if r < self.extra + self.drop:
            return super().tm(m, printer.BINDER)
        return super().tm(m, level)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return (e.line, e.col, e.message, e.expected)


_BARE_OPERANDS = [
    "#0 ;; \\x:Bool. #1",
    "#0 @ if #1 is K then #2 else #3 @ #4",
    "#0 |> /\\t:*. #1 |> #2 <+> #3",
    "#0 <+> forallc t:*. #1 ;; #2 @[t]",
    "#0 @ guard #1 is K [Bool] then #2 .1",
    "sym \\x:Bool. #0 ;; #1",
    "sym sym #0 @ sym #1 .2 @[Bool]",
    "#0 ;; sym if #1 is K then #2 else #3",
    "if #0 is K then \\x:Bool. #1 <+> #2 else #3 |> #4",
    "#0 @ \\x:Bool. #1 @ #2",
    "f \\x:Bool. #0",
    "#0 ;; ;; #1",
    "#0 @[Bool #1",
    "sym",
    "#0 |> if #1 is k then #2 else #3",
]


def test_term_parser_matches_the_oracle():
    for text in _BARE_OPERANDS:
        assert _outcome(parse_term, text) == _outcome(oracle_parse_term,
                                                      text), text
    rng = random.Random(17)
    bare = 0
    for i in range(600):
        node = gen_node(rng, 4 + i % 12)
        if i % 2 == 0:
            text = _NoisyPrinter(rng, 0.2, 0.0).tm(node)
            assert parse_term(text) == node, text
        else:
            text = _NoisyPrinter(rng, 0.1, 0.2).tm(node)
        assert _outcome(parse_term, text) == _outcome(oracle_parse_term,
                                                      text), text
        kinds = [tok.kind if tok.kind != "kw" else tok.text
                 for tok in tokenize(text)]
        bare += any(a in printer.INFIX
                    and b in {*printer.BINDERS, "if", "guard", "sym"}
                    for a, b in zip(kinds, kinds[1:]))
    # the inputs do put binder forms and `sym` right after an operator
    assert bare >= 50, bare


def test_core_parser_matches_the_oracle_on_corpus_edits():
    for name in ("prelude.fd", "maybe.fd", "superclasses.fd", "fundeps.fd"):
        text = corpus_text(name)
        assert parse_core(text) == oracle_parse_core(text)
    for name, op, pos, ch, edited in seeded_corpus_edits():
        assert (_outcome(parse_core, edited)
                == _outcome(oracle_parse_core, edited)), (name, op, pos, ch)


def test_parse_term_on_a_190_deep_not_chain():
    depth = 190
    node = parse_term("not (" * depth + "True" + ")" * depth)
    for _ in range(depth):
        assert node.fun == Ref("not")
        node = node.arg
    assert node == Con("True")
