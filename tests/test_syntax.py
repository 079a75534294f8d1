import copy
import pickle
import random
from dataclasses import fields

import pytest

from fdc import printer
from fdc.corpus import corpus_text
from fdc.parser import (
    Cursor, ParseError, parse_core, parse_core_with_spans, parse_term,
    parse_type,
)
from fdc.printer import print_core, print_node, print_term, print_type
from fdc.propcheck import GenConfig, gen_node, gen_well_typed
from fdc.syntax import (
    App, CApp, Cast, Choice, CInst, Con, CtorDecl, DataDecl, EqTy, Forall, Fst,
    Guard, If, InstanceDecl, KArr, Lam, LetDecl, MethodDecl, OpenCtorDecl,
    OpenTypeDecl, Pattern, Ref, Refl, Sim, Snd, Star, Sym, TApp, TCon, Trans,
    TVar, TyApp, TyLam, Univ, Var, ZERO, STAR, BINDER, DATA, FIELDS, KIND,
    OPEN, PATTERN, TABLE_LIMIT, Node, arrow, loose_range,
)
from fdc.subst import shift

from parser_oracle import (
    oracle_parse_core, oracle_parse_term, reference_tokenize,
)
from test_cli import seeded_corpus_edits
from test_reduction import _on_a_fresh_stack, not_chain


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
    assert a == b
    assert parse_type("Bool") != parse_type("Int")
    eq = parse_type("Eq Bool ~ Eq Bool")
    assert eq == eq


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_core("data : *;")
    assert exc.value.line == 1
    assert exc.value.col > 1


def tokenize(text):
    """(kind, text, line, col) of each token `Cursor` lexes, `eof` last."""
    c = Cursor(text)
    return [(kind, tok, *c.where(i))
            for i, (kind, tok) in enumerate(zip(c.kinds, c.texts))]


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
    got = tokenize(text[:-1])
    assert got == [
        ("kw", "data", 3, 1), ("name", "T", 3, 6), (":", ":", 3, 8),
        ("*", "*", 3, 10), (";", ";", 3, 11),
        ("kw", "ctor", 5, 3), ("name", "K", 5, 8), (":", ":", 5, 10),
        ("name", "T", 5, 12), (";", ";", 5, 13), ("eof", "", 6, 3),
    ]


def _lexed(lex, text):
    try:
        return lex(text)
    except ParseError as e:
        return e.message, e.line, e.col


# Fragments that start no token: a lone "#", "-", "<" or "/" (each a prefix
# of longer tokens), a byte-order mark, a non-ASCII letter and other stray
# characters; and NBSP, which is skipped as Unicode white space.
_ODD_FRAGMENTS = ["#", "-", "<", "/", "\u00a0", "\ufeff", "\u00e9", "$", "+",
                  ">"]
_TOKEN_FRAGMENTS = [
    " ", "  ", "\n", "\r\n", "\t", "-- x\n", "--", "#12", "#0", "0", "42",
    "x", "T", "_", "a1'", "Ab_c", "data", "forall", "is", "@[", ";;", "<+>",
    "|>", "->", "/\\", ".1", ".2", "::", "=>", "~", "@", ";", ":", ".", ",",
    "(", ")", "[", "]", "\\", "*", "=", "{", "}", "|",
]


_CORPUS_FD = ("prelude.fd", "maybe.fd", "superclasses.fd", "fundeps.fd")


def test_lexer_matches_the_reference_lexer():
    """Every token's kind, text, line and column, and every lexing error's
    message, line and column, are the reference lexer's."""
    rng = random.Random(2501)
    failed = 0
    for i in range(6000):
        fragments = _TOKEN_FRAGMENTS + _ODD_FRAGMENTS * (i % 2)
        text = "".join(rng.choice(fragments) for _ in range(rng.randrange(30)))
        if i % 5 == 0:
            text += "--"  # a comment that ends the text
        got = _lexed(tokenize, text)
        assert got == _lexed(reference_tokenize, text), repr(text)
        failed += isinstance(got, tuple)
    # both sides of the comparison are exercised
    assert 1000 < failed < 2500, failed
    texts = [corpus_text(name) for name in _CORPUS_FD]
    texts += [edited for *_, edited in seeded_corpus_edits()]
    for text in texts:
        assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


def test_declaration_spans_are_the_reference_positions():
    """Each declaration's span is where the reference lexer puts its first
    token: the first token and each one after a `;`."""
    for name in _CORPUS_FD:
        text = corpus_text(name)
        tokens = reference_tokenize(text)
        firsts = [tokens[0]] + [t for prev, t in zip(tokens, tokens[1:])
                                if prev.kind == ";" and t.kind != "eof"]
        decls, spans = parse_core_with_spans(text)
        assert spans == [(t.line, t.col) for t in firsts], name
        assert len(decls) == len(spans)


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
        assert n == n
    for a in nodes:
        for b in nodes:
            assert (a == b) == (b == a)
            if a == b:
                for c in nodes:
                    if b == c:
                        assert a == c


def test_free_indices_print_env_relative():
    # under one binder, index 1 escapes the term and prints as #0
    t = Lam(TCon("Bool"), Var(1))
    assert print_term(t) == "\\x0:Bool. #0"
    assert parse_term(print_term(t)) == t


def test_node_hash_is_cached_and_structural():
    def build():
        return App(Lam(TCon("Bool"), Var(0)), Choice(Con("True"), ZERO))

    a, b = build(), build()
    assert a is b and a == b and hash(a) == hash(b)
    assert a in {b} and b in {a}
    # the same hash whether the parent or a child is hashed first
    parent_first, child_first = build(), build()
    hash(parent_first)
    hash(child_first.arg)
    hash(child_first.fun.body)
    assert hash(child_first) == hash(parent_first)
    assert hash(child_first.arg) == hash(parent_first.arg)
    assert hash(child_first.fun) == hash(parent_first.fun)


def test_a_deep_chain_is_built_hashed_and_compared_without_recursion():
    # hash and loose range are read off the children when a node is built,
    # and a chain built twice in a row is one object, so none of these
    # walks the chain
    def run():
        a, b = not_chain(10_000, "True"), not_chain(10_000, "True")
        other = not_chain(10_000, "False")
        return (a is b, hash(a) == hash(b), loose_range(a), a == b,
                a != other, shift(a, 1) is a)

    assert _on_a_fresh_stack(run) == (True, True, 0, True, True, True)


def test_a_node_built_after_its_table_is_emptied_equals_the_old_one():
    def build():
        return App(Lam(TCon("Bool"), Var(0)), Choice(Con("True"), ZERO))

    old = build()
    # a full generation replaces the older one: fill both, in the table of
    # every class `build` uses, with nodes that share no field with its own
    for i in range(1, 2 * TABLE_LIMIT + 1):
        leaf = Var(i)
        App(leaf, leaf), Lam(TCon(f"T{i}"), leaf)
        Choice(Con(f"K{i}"), leaf)
    new = build()
    assert new.fun.body is not old.fun.body and new.arg is not old.arg
    assert new is not old and new == old and old == new
    assert hash(new) == hash(old) and loose_range(new) == loose_range(old)
    assert new in {old} and old in {new}
    # copies and pickles come back through the constructor
    assert copy.deepcopy(new) is new and pickle.loads(pickle.dumps(old)) is new
    # every node class is listed once, and holds its fields in slots
    assert len(Node.__subclasses__()) == len(FIELDS)
    for cls, shape in FIELDS.items():
        assert cls.__slots__ == tuple(name for name, _ in shape)
    assert not hasattr(new, "__dict__")


def test_equal_deep_chains_not_one_object_compare_without_recursion():
    # the second chain is built after both generations of `App`'s table
    # were filled, so none of its applications is the first chain's; `==`
    # walks the pair to the leaf over an explicit stack
    def run():
        a = not_chain(10_000, "True")
        for i in range(1, 2 * TABLE_LIMIT + 1):
            App(Var(i), Var(i))
        b = not_chain(10_000, "True")
        return (a is not b, a == b, not (a != b), b in {a}, {a: 1}[b] == 1,
                not_chain(10_000, "False") != b)

    assert _on_a_fresh_stack(run) == (True,) * 6


def test_repr_prints_shallow_nodes_as_before_and_deep_ones_without_recursion():
    # the three shallow nodes cover every other node class and a pattern
    # with zero, one and two type arguments
    shallow = {
        If(Var(0), Pattern("Just", (TCon("Bool"),)),
           Lam(TApp(TCon("Maybe"), TVar(0)), Var(0)), ZERO):
        "If(scrut=Var(index=0), pat=Pattern(head='Just', type_args=("
        "TCon(name='Bool'),)), cons=Lam(ann=TApp(fun=TCon(name='Maybe'), "
        "arg=TVar(index=0)), body=Var(index=0)), alt=Zero())",
        Guard(Ref("d"), Pattern("FMM", (TCon("Int"), TVar(1))),
              TyLam(KArr(STAR, STAR), Choice(Con("K"), Refl(
                  EqTy(TCon("Bool"), TCon("Bool"), STAR))))):
        "Guard(scrut=Ref(name='d'), pat=Pattern(head='FMM', type_args=("
        "TCon(name='Int'), TVar(index=1))), cons=TyLam(kind=KArr("
        "left=Star(), right=Star()), body=Choice(left=Con(name='K'), "
        "right=Refl(type=EqTy(lhs=TCon(name='Bool'), rhs=TCon(name='Bool'), "
        "kind=Star())))))",
        Guard(Ref("d"), Pattern("FIB"), Cast(Con("True"), Sym(Trans(
            CApp(Fst(Var(1)), Snd(Var(2))),
            Sim(Univ(STAR, CInst(Var(0), TVar(0))),
                TyApp(Ref("f"), Forall(STAR, TVar(0)))))))):
        "Guard(scrut=Ref(name='d'), pat=Pattern(head='FIB', type_args=()), "
        "cons=Cast(subject=Con(name='True'), coercion=Sym(arg=Trans("
        "left=CApp(left=Fst(arg=Var(index=1)), right=Snd(arg=Var(index=2))), "
        "right=Sim(left=Univ(kind=Star(), body=CInst(coercion=Var(index=0), "
        "type=TVar(index=0))), right=TyApp(fun=Ref(name='f'), arg=Forall("
        "kind=Star(), body=TVar(index=0))))))))",
    }
    for n, shown in shallow.items():
        assert repr(n) == shown
    deep = _on_a_fresh_stack(lambda: repr(not_chain(10_000, "True")))
    assert deep == ("App(fun=Ref(name='not'), arg=" * 10_000
                    + "Con(name='True')" + ")" * 10_000)


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
        c = Cursor(text)
        kinds = [tok if kind == "kw" else kind
                 for kind, tok in zip(c.kinds, c.texts)]
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
