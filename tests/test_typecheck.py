import os

import pytest

from fdc import propcheck
from fdc.cli import _load_env
from fdc.corpus import prelude_env
from fdc.elaborate import ElabOptions
from fdc.parser import parse_term, parse_type
from fdc.printer import print_node
from fdc.propcheck import GenConfig, gen_well_typed
from fdc.subst import shift
from fdc.syntax import (
    Annot, App, Con, Decl, Env, EqTy, Hole, KArr, Lam, Pattern, Ref, Refl,
    TApp, TCon, TmVarBind, TVar, TyVarBind, Var, ZERO, STAR, arrow,
    spine_head, split_ctor_type,
)
from fdc.typecheck import (
    CheckError, Diagnostic, check_decl, check_env,
    check_program, check_term, infer_term, is_data_head, is_kind,
    is_open_head, kind_of, pattern_type,
)
from fdc.syntax import DataDecl, CtorDecl, OpenTypeDecl, OpenCtorDecl, \
    MethodDecl, InstanceDecl, LetDecl

BOOL = TCon("Bool")


@pytest.mark.parametrize("term, path", [
    (Hole(TApp(TCon("Eq"), BOOL)), ()),
    (Annot(Con("True"), BOOL), ()),
    (App(Ref("not"), Annot(Con("True"), BOOL)), ("arg",)),
    (Lam(BOOL, Hole(BOOL)), ("body",)),
], ids=["hole", "annotation", "argument", "lambda-body"])
def test_surface_nodes_are_a_diagnostic_without_a_hook(prelude, term, path):
    # only elaboration types holes and annotations; the plain checker
    # reports them where they are, and raises nothing else
    wanted = Diagnostic("not-core", "holes and type annotations are surface "
                                    "syntax, typed only by elaboration", path)
    expected = BOOL if not isinstance(term, Lam) else arrow(BOOL, BOOL)
    for check in (lambda: infer_term(prelude, term),
                  lambda: check_term(prelude, term, expected)):
        with pytest.raises(CheckError) as exc:
            check()
        assert exc.value.diagnostic == wanted


def test_check_env_empty_and_arrow_seed():
    check_env(Env())  # the pre-seeded arrow constant forms a valid env


def test_check_env_method_after_open(prelude):
    env = prelude.push(
        OpenTypeDecl("Eq", KArr(STAR, STAR)),
        MethodDecl("eqm", parse_type("forall a:*. Eq a -> a -> a -> Bool")))
    check_env(env)


def test_check_env_rejects_wrong_instance_body(prelude):
    sig = parse_type("forall a:*. Eq a -> a -> a -> Bool")
    # a body typed at a different shape: binders for the two value
    # arguments are swapped with the type abstraction
    body = parse_term("\\d:Bool. \\x:Bool. \\y:Bool. x")
    env = prelude.push(OpenTypeDecl("Eq", KArr(STAR, STAR)),
                       MethodDecl("eqm", sig),
                       InstanceDecl("eqm", body))
    with pytest.raises(CheckError):
        check_env(env)


def test_kind_of_examples(prelude):
    env = prelude.push(OpenTypeDecl("Eq", KArr(STAR, STAR)))
    assert kind_of(env, TCon("Eq")) == KArr(STAR, STAR)
    assert kind_of(env, parse_type("forall t:*. t -> t")) == STAR
    assert kind_of(env, parse_type("Bool ~ Bool")) == STAR


def test_kind_of_failures(prelude):
    with pytest.raises(CheckError):
        kind_of(prelude, TCon("Undeclared"))
    with pytest.raises(CheckError):
        kind_of(prelude, TApp(BOOL, BOOL))  # Bool is not a constructor
    with pytest.raises(CheckError):
        kind_of(prelude, TVar(0))  # unbound


def test_infer_lambda(prelude):
    got = infer_term(prelude, parse_term("\\x:Bool. x"))
    assert got == arrow(BOOL, BOOL)


def test_infer_zero_and_choice_merge(prelude):
    assert infer_term(prelude, ZERO) is None
    got = infer_term(prelude, parse_term("0 <+> (\\x:Bool. x)"))
    assert got == arrow(BOOL, BOOL)
    # cross-check in check mode
    check_term(prelude, parse_term("0 <+> (\\x:Bool. x)"), arrow(BOOL, BOOL))


def test_infer_choice_type_mismatch(prelude):
    with pytest.raises(CheckError):
        infer_term(prelude, parse_term("True <+> (\\x:Bool. x)"))


def test_neutral_spine_with_zero_argument_is_exact(prelude):
    # `x M1 ... Mn` stays exactly typed even when an argument is zero
    got = infer_term(prelude, parse_term("xor 0 True"))
    assert got == BOOL


def test_check_zero_against_anything(prelude):
    check_term(prelude, ZERO, BOOL)
    check_term(prelude, ZERO, parse_type("forall t:*. t -> t"))
    with pytest.raises(CheckError):
        check_term(prelude, ZERO, TVar(3))  # expected type must kind-check


def test_check_refl(prelude):
    check_term(prelude, parse_term("refl(Bool)"), parse_type("Bool ~ Bool"))
    with pytest.raises(CheckError):
        check_term(prelude, parse_term("refl(Bool)"),
                   parse_type("Bool ~ Int"))


def test_check_choice_checks_each_side(prelude):
    # each alternative is checked against the expected type on its own, at
    # its own path, whichever side is wrong and whatever the other side is
    for text, side in (("True <+> refl(Bool)", "right"),
                       ("refl(Bool) <+> True", "left"),
                       ("0 <+> refl(Bool)", "right")):
        got = _diagnostic(lambda: check_term(prelude, parse_term(text), BOOL))
        assert got == Diagnostic("type-mismatch", "term type mismatch",
                                 (side,), "Bool", "Bool ~ Bool"), text


def _coercion_type(env, eta):
    """The endpoints and kind of the coercion `eta`, read off the equality
    type `infer_term` gives it."""
    got = infer_term(env, eta)
    assert isinstance(got, EqTy), got
    return got.lhs, got.rhs, got.kind


def test_coerce_type_sym_trans():
    # h2 : Bool ~ u, k2 : Bool ~ v  gives  sym h2 ;; k2 : u ~ v
    env = Env().push(
        DataDecl("Bool", STAR), TyVarBind(STAR), TyVarBind(STAR),
        TmVarBind(EqTy(BOOL, TVar(1), STAR)),
        TmVarBind(EqTy(BOOL, TVar(1), STAR)))
    # binder telescope: u, v, h2 : Bool ~ u, k2 : Bool ~ v
    eta = parse_term("sym #1 ;; #0")
    lhs, rhs, kind = _coercion_type(env, eta)
    assert lhs == TVar(3)   # u at this depth
    assert rhs == TVar(2)   # v
    assert kind == STAR


def test_coerce_type_application_of_refls(prelude):
    env = prelude.push(OpenTypeDecl("Eq", KArr(STAR, STAR)))
    lhs, rhs, kind = _coercion_type(env, parse_term("refl(Eq) @ refl(Bool)"))
    assert lhs == TApp(TCon("Eq"), BOOL)
    assert rhs == TApp(TCon("Eq"), BOOL)
    assert kind == STAR


def test_coerce_type_snd_projection(prelude):
    # h1 : Maybe a' ~ a, k1 : Maybe a'' ~ a  gives  (h1 ;; sym k1).2 : a' ~ a''
    env = prelude.push(
        TyVarBind(STAR), TyVarBind(STAR), TyVarBind(STAR),
        TmVarBind(EqTy(TApp(TCon("Maybe"), TVar(1)), TVar(2), STAR)),
        TmVarBind(EqTy(TApp(TCon("Maybe"), TVar(1)), TVar(3), STAR)))
    # telescope: a, a', a'', h1 : Maybe a' ~ a, k1 : Maybe a'' ~ a
    lhs, rhs, kind = _coercion_type(env, parse_term("(#1 ;; sym #0) .2"))
    assert lhs == TVar(3)   # a'
    assert rhs == TVar(2)   # a''
    assert kind == STAR


def test_projections_relate_heads_or_arguments(prelude):
    # h : Maybe Bool ~ Maybe Int; h.1 relates the heads at their kind, h.2
    # the arguments
    maybe = TCon("Maybe")
    env = prelude.push(TmVarBind(EqTy(TApp(maybe, BOOL),
                                      TApp(maybe, TCon("Int")), STAR)))
    assert _coercion_type(env, parse_term("#0 .1")) \
        == (maybe, maybe, KArr(STAR, STAR))
    assert _coercion_type(env, parse_term("#0 .2")) \
        == (BOOL, TCon("Int"), STAR)
    # an error inside the projected coercion is reported under its segment
    for proj, seg in ((".1", "fst"), (".2", "snd")):
        term = parse_term(f"refl(Nope) {proj}")
        assert _diagnostic(lambda: infer_term(prelude, term)) == Diagnostic(
            "unbound-con", "type constant 'Nope' is not declared",
            (seg, "refl"))


def test_coerce_type_shape_errors(prelude):
    with pytest.raises(CheckError):
        infer_term(prelude, parse_term("refl(Bool) .1"))  # not an application
    with pytest.raises(CheckError):
        infer_term(prelude, parse_term("refl(Bool) ;; refl(Int)"))
    with pytest.raises(CheckError):
        infer_term(prelude, parse_term("refl(Bool) @[Int]"))


# h : (forall a:*. a -> a) ~ (forall a:*. a -> Bool), instantiated at a type
CINST = "\\h:(forall a:*. a -> a) ~ (forall a:*. a -> Bool). h @[{}]"


def test_coercion_instantiation_types_both_sides(prelude):
    # `h @[t]` proves sigma[t] ~ tau[t]: each side instantiated on its own
    got = infer_term(prelude, parse_term(CINST.format("Int")))
    assert got == arrow(
        parse_type("(forall a:*. a -> a) ~ (forall a:*. a -> Bool)"),
        parse_type("(Int -> Int) ~ (Int -> Bool)"))


def test_coercion_instantiation_kinds_its_argument(prelude):
    got = _diagnostic(lambda: infer_term(prelude,
                                         parse_term(CINST.format("Maybe"))))
    assert str(got) == ("kind-mismatch: coercion instantiation kind mismatch "
                        "at body (expected *, found * -> *)")


def test_pattern_type_eqbool(superclasses_env):
    env = superclasses_env.push(TyVarBind(STAR))
    res, args, cod = pattern_type(env, Pattern("EqBool", (TVar(0),)),
                                  TApp(TCon("Eq"), TVar(0)))
    assert res == []
    assert args == [EqTy(BOOL, TVar(0), STAR)]
    assert cod == TApp(TCon("Eq"), TVar(0))


def test_pattern_type_fmm_residuals(fundeps_env):
    env = fundeps_env.push(TyVarBind(STAR), TyVarBind(STAR))
    scrut = TApp(TApp(TCon("F"), TVar(1)), TVar(0))  # F t v
    res, args, cod = pattern_type(env, Pattern("FMM", (TVar(1), TVar(0))),
                                  scrut)
    assert res == [STAR, STAR]
    maybe = TCon("Maybe")
    # under the two residual binders a'' b'': Maybe a'' ~ t, Maybe b'' ~ v,
    # then the recursive dictionary F a'' b''
    assert args == [
        EqTy(TApp(maybe, TVar(1)), TVar(3), STAR),
        EqTy(TApp(maybe, TVar(0)), TVar(2), STAR),
        TApp(TApp(TCon("F"), TVar(1)), TVar(0)),
    ]
    assert cod == scrut


def test_pattern_type_just(prelude):
    env = prelude.push(TyVarBind(STAR))
    res, args, cod = pattern_type(env, Pattern("Just", (TVar(0),)),
                                  TApp(TCon("Maybe"), TVar(0)))
    assert res == []
    assert args == [TVar(0)]
    assert cod == TApp(TCon("Maybe"), TVar(0))


def test_pattern_type_errors(prelude):
    with pytest.raises(CheckError):
        pattern_type(prelude, Pattern("Nope", ()), BOOL)
    with pytest.raises(CheckError):
        pattern_type(prelude, Pattern("True", (BOOL,)), BOOL)  # too many args
    with pytest.raises(CheckError):
        pattern_type(prelude, Pattern("True", ()), TCon("Int"))


def test_check_decl_sequences(prelude):
    env = check_decl(prelude, OpenTypeDecl("F", KArr(STAR, KArr(STAR, STAR))))
    env = check_decl(env, OpenCtorDecl(
        "FIB", parse_type("forall a:*. forall b:*. "
                          "(Int ~ a) -> (Bool ~ b) -> F a b")))
    assert isinstance(env.ctor_sig("FIB"), OpenCtorDecl)
    # a closed ctor may not target the open type
    with pytest.raises(CheckError):
        check_decl(env, CtorDecl("K", parse_type("F Int Bool")))
    # instances must match the declared method type exactly
    env = check_decl(env, MethodDecl("pick", parse_type("Bool -> Bool")))
    env = check_decl(env, InstanceDecl("pick", parse_term("\\x:Bool. x")))
    with pytest.raises(CheckError):
        check_decl(env, InstanceDecl("pick", parse_term("True")))
    with pytest.raises(CheckError):
        check_decl(env, InstanceDecl("nosuch", parse_term("True")))


def test_check_decl_duplicate_names(prelude):
    with pytest.raises(CheckError):
        check_decl(prelude, DataDecl("Bool", STAR))
    with pytest.raises(CheckError):
        check_decl(prelude, LetDecl("not", arrow(BOOL, BOOL),
                                    parse_term("\\x:Bool. x")))


def test_is_data_and_open_heads(prelude):
    env = prelude.push(OpenTypeDecl("Eq", KArr(STAR, STAR)))
    assert is_data_head(env, TApp(TCon("Maybe"), BOOL))
    assert is_open_head(env, TApp(TCon("Eq"), BOOL))
    assert not is_data_head(env, TApp(TCon("Eq"), BOOL))
    env2 = env.push(TyVarBind(KArr(STAR, STAR)))
    assert not is_data_head(env2, TApp(TVar(0), BOOL))
    assert not is_open_head(env2, TApp(TVar(0), BOOL))


def test_if_consequent_may_not_leak_residuals(prelude):
    # forall-typed consequent whose result type mentions the residual binder
    env = check_decl(prelude, DataDecl("Box", KArr(STAR, STAR)))
    env = check_decl(env, CtorDecl(
        "MkBox", parse_type("forall a:*. a -> Box a")))
    scrut = parse_term("MkBox [Bool] True")
    # consequent /\?? -- pattern Box with no type args leaves a residual
    bad = parse_term("if MkBox [Bool] True is MkBox "
                     "then /\\t:*. \\v:t. v else True")
    with pytest.raises(CheckError):
        infer_term(env, bad)


def test_check_program_collects_and_continues(prelude):
    decls = [
        LetDecl("good", BOOL, Con("True")),
        LetDecl("bad", BOOL, parse_term("\\x:Bool. x")),
        LetDecl("alsogood", BOOL, Ref("good")),
    ]
    env, diags = check_program(prelude, decls)
    assert len(diags) == 1
    assert env.let_sig("alsogood") is not None


def _classify(env, n):
    """Which of the kind, type and term judgments accept `n`; a well-formed
    node satisfies exactly one."""
    if is_kind(n):
        return ["kind"]
    out = []
    for name, judgment in (("type", kind_of), ("term", infer_term)):
        try:
            judgment(env, n)
            out.append(name)
        except CheckError:
            pass
    return out


def test_classification_exactly_one(prelude):
    samples = [
        (STAR, "kind"),
        (KArr(STAR, STAR), "kind"),
        (BOOL, "type"),
        (parse_type("forall t:*. t -> t"), "type"),
        (parse_term("\\x:Bool. x"), "term"),
        (Con("True"), "term"),
        (Refl(BOOL), "term"),
    ]
    for node, expected in samples:
        got = _classify(prelude, node)
        assert got == [expected], (node, got)


def test_classification_on_generated_terms():
    cfg = GenConfig(seed=21, size=15)
    for i in range(60):
        env, term, ty = gen_well_typed(cfg, i)
        assert _classify(env, term) == ["term"]
        assert _classify(env, ty) == ["type"]


def test_uniqueness_repeated_inference(prelude):
    term = parse_term("xor (not True) False")
    first = infer_term(prelude, term)
    second = infer_term(prelude, term)
    assert first == second == BOOL


def test_check_succeeds_whenever_infer_is_exact():
    cfg = GenConfig(seed=77, size=22)
    for i in range(150):
        env, term, _ = gen_well_typed(cfg, i)
        got = infer_term(env, term)
        if got is not None:
            check_term(env, term, got)


# -- the indexed environment against a linear scan of its entries

BINDS = (TyVarBind, TmVarBind)
SIGS = {"type_sig": (DataDecl, OpenTypeDecl),
        "ctor_sig": (CtorDecl, OpenCtorDecl),
        "method_sig": MethodDecl, "let_sig": LetDecl, "let_def": LetDecl}


def _scan(env, accept):
    """The innermost entry that `accept` takes, by a reverse scan."""
    for e in reversed(env.entries):
        if accept(e):
            return e
    return None


def _scan_binder(env, index):
    seen = 0
    for e in reversed(env.entries):
        if isinstance(e, BINDS):
            if seen == index:
                return e
            seen += 1
    return None


def _result_head(ctor):
    head = spine_head(split_ctor_type(ctor.type)[2])
    return head.name if isinstance(head, TCon) else None


def assert_names_match_scan(env):
    entries = env.entries
    for name in {e.name for e in entries if isinstance(e, Decl)} | {"nope"}:
        for method, classes in SIGS.items():
            want = _scan(env, lambda e: isinstance(e, classes)
                         and e.name == name)
            assert getattr(env, method)(name) is want, (method, name)
        assert env.instance_defs(name) == [
            e.body for e in entries
            if isinstance(e, InstanceDecl) and e.name == name]
        assert env.ctors_of(name) == [
            e for e in entries if isinstance(e, (CtorDecl, OpenCtorDecl))
            and _result_head(e) == name]
        assert env.type_name_taken(name) == (env.type_sig(name) is not None)
        assert env.term_name_taken(name) == any(
            _scan(env, lambda e: isinstance(e, SIGS[m]) and e.name == name)
            is not None for m in ("ctor_sig", "method_sig", "let_sig"))


def assert_binders_match_scan(env):
    depth = sum(isinstance(e, BINDS) for e in env.entries)
    assert len(env.binders) == depth
    for i in range(-1, depth + 1):
        assert env.binder(i) is _scan_binder(env, i), i
    assert env.is_lambda_free() == (_scan(
        env, lambda e: isinstance(e, TmVarBind)) is None)


def test_indexed_lookups_match_a_linear_scan(monkeypatch):
    """Every environment pushed while checking the corpus programs (the
    .hsk files elaborated first) and the four generator preludes, binder
    prefixes included, answers each lookup as a reverse scan does."""
    pushes = []
    push = Env.push

    def recording(self, *new):
        out = push(self, *new)
        pushes.append((self, new, out))
        return out

    monkeypatch.setattr(Env, "push", recording)
    corpus = os.path.join(os.path.dirname(propcheck.__file__), "corpus")
    for name in sorted(os.listdir(corpus)):
        _load_env(os.path.join(corpus, name), ElabOptions(), prelude_env())
    for name in propcheck.PRELUDES:
        propcheck.prelude_for.__wrapped__(name)
    monkeypatch.undo()
    assert len(pushes) > 1000
    # checked programs declare each name once; unchecked pushes may shadow
    shadowing = [DataDecl("T", STAR), CtorDecl("K", TCon("T")),
                 MethodDecl("m", TCon("T")), InstanceDecl("m", Con("K")),
                 TyVarBind(STAR), OpenTypeDecl("T", STAR),
                 OpenCtorDecl("K", TCon("T")), LetDecl("m", TCon("T"), ZERO),
                 TmVarBind(TCon("T")), InstanceDecl("m", ZERO)]
    env = Env()
    for entry in shadowing:
        child = env.push(entry)
        pushes.append((env, (entry,), child))
        env = child
    assert_names_match_scan(Env())
    for parent, new, env in pushes:
        assert_binders_match_scan(env)
        if all(isinstance(e, BINDS) for e in new):
            assert env.index is parent.index  # shared, not copied
        else:
            assert_names_match_scan(env)


def test_diagnostic_text_shows_only_the_fields_that_are_set():
    assert str(Diagnostic("c", "m")) == "c: m"
    assert str(Diagnostic("c", "m", found="T")) == "c: m (found T)"
    assert str(Diagnostic("c", "m", expected="U")) == "c: m (expected U)"
    both = Diagnostic("c", "m", path=("x",), expected="U", found="T",
                      span=(2, 3))
    assert str(both) == "2:3: c: m at x (expected U, found T)"
    assert Diagnostic("c", "m", found="T").to_record() == {
        "code": "c", "message": "m", "found": "T"}


# ------------------------------------------- lambda telescopes, layer by layer

MAYBE = TCon("Maybe")
# The annotations of a chain of up to three lambdas, over the type binders
# outside it: under none, closed types; under two (`a` is #1 and `b` is #0
# outside the chain), open ones, which every term binder shifts.
CHAIN_ANNS = {
    0: (BOOL, TApp(MAYBE, BOOL), arrow(BOOL, BOOL)),
    2: (TVar(1), TApp(MAYBE, TVar(0)), arrow(TVar(1), TVar(0))),
}
# a * type that is no annotation of the chain, per number of type binders
OTHER = {0: TApp(MAYBE, TApp(MAYBE, BOOL)), 2: TApp(MAYBE, TVar(1))}
LAYERS = [(tyvars, n, j) for tyvars in (0, 2) for n in (1, 2, 3)
          for j in range(1, n + 1)]


def _under(prelude, tyvars, *decls):
    return prelude.push(*decls, *[TyVarBind(STAR)] * tyvars)


def _chain(anns, body):
    """`\\x1:ann1. ... \\xn:annn. body`; each annotation is given over the
    binders outside the chain and shifted past the term binders before it."""
    for j in reversed(range(len(anns))):
        body = Lam(shift(anns[j], j), body)
    return body


def _arrows(doms, cod):
    for d in reversed(doms):
        cod = arrow(d, cod)
    return cod


def _diagnostic(run) -> Diagnostic:
    with pytest.raises(CheckError) as info:
        run()
    return info.value.diagnostic


def _body(j):
    return ("body",) * (j - 1)


def _shown(ty, depth):
    return print_node(shift(ty, depth))


@pytest.mark.parametrize("tyvars", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_chain_types_in_both_modes(prelude, tyvars, n):
    # \x1. ... \xn. x1 has type ann1 -> ... -> annn -> ann1
    env = _under(prelude, tyvars)
    anns = CHAIN_ANNS[tyvars][:n]
    term = _chain(anns, Var(n - 1))
    want = _arrows(anns, anns[0])
    assert infer_term(env, term) == want
    check_term(env, term, want)
    # a zero body leaves the whole chain without a type
    assert infer_term(env, _chain(anns, ZERO)) is None
    check_term(env, _chain(anns, ZERO), want)


@pytest.mark.parametrize("tyvars,n,j", LAYERS)
def test_lambda_annotation_kind_at_each_layer(prelude, tyvars, n, j):
    env = _under(prelude, tyvars)
    anns = list(CHAIN_ANNS[tyvars][:n])
    anns[j - 1] = MAYBE
    assert _diagnostic(lambda: infer_term(env, _chain(anns, Var(n - 1)))) \
        == Diagnostic("kind-mismatch", "lambda annotation must be a * type",
                      _body(j), "*", "* -> *")
    # an annotation out of scope, and one naming a term binder
    anns[j - 1] = TVar(tyvars)
    assert _diagnostic(lambda: infer_term(env, _chain(anns, Var(n - 1)))) \
        == Diagnostic("unbound-var",
                      f"type variable #{tyvars + j - 1} is not in scope",
                      _body(j) + ("ann",))
    if j > 1:
        term = _chain(anns[:j - 1], Lam(TVar(0), Var(0)))
        assert _diagnostic(lambda: infer_term(env, term)) == Diagnostic(
            "classification", "variable #0 is a term variable",
            _body(j) + ("ann",))


@pytest.mark.parametrize("tyvars,n,j", LAYERS)
def test_lambda_body_type_naming_a_binder_at_each_layer(prelude, tyvars, n,
                                                        j):
    # `leak`'s declared type is open, so no well-formed environment holds it
    # (`check_env` rejects it): a well-scoped one gives a lambda body no
    # type that names its binder. The type #(n - j) names layer j's binder;
    # layer j reports the type of its body, expressed under its binder.
    env = _under(prelude, tyvars, LetDecl("leak", TVar(n - j), ZERO))
    anns = CHAIN_ANNS[tyvars][:n]
    found = _arrows([shift(a, j) for a in anns[j:]], TVar(0))
    assert _diagnostic(lambda: infer_term(env, _chain(anns, Ref("leak")))) \
        == Diagnostic("dependent-type", "body type mentions the term binder",
                      _body(j), None, print_node(found))
    with pytest.raises(CheckError):
        check_env(env)


@pytest.mark.parametrize("tyvars,n,j", LAYERS)
def test_lambda_checked_against_too_few_arrows(prelude, tyvars, n, j):
    env = _under(prelude, tyvars)
    anns = CHAIN_ANNS[tyvars][:n]
    cod = OTHER[tyvars]
    assert _diagnostic(lambda: check_term(env, _chain(anns, Var(n - 1)),
                                          _arrows(anns[:j - 1], cod))) \
        == Diagnostic("type-mismatch",
                      "lambda checked against a non-function type",
                      _body(j), _shown(cod, j - 1), "a lambda")


@pytest.mark.parametrize("tyvars,n,j", LAYERS)
def test_lambda_annotation_mismatch_at_each_layer(prelude, tyvars, n, j):
    env = _under(prelude, tyvars)
    anns = CHAIN_ANNS[tyvars][:n]
    doms = list(anns)
    doms[j - 1] = OTHER[tyvars]
    assert _diagnostic(lambda: check_term(env, _chain(anns, Var(n - 1)),
                                          _arrows(doms, anns[0]))) \
        == Diagnostic("type-mismatch", "lambda annotation mismatch",
                      _body(j), _shown(doms[j - 1], j - 1),
                      _shown(anns[j - 1], j - 1))


@pytest.mark.parametrize("tyvars", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_chain_body_errors(prelude, tyvars, n):
    env = _under(prelude, tyvars)
    anns = CHAIN_ANNS[tyvars][:n]
    cod = TApp(MAYBE, anns[0])
    # checked: the body meets the codomain shifted past every binder
    assert _diagnostic(lambda: check_term(env, _chain(anns, Var(n - 1)),
                                          _arrows(anns, cod))) \
        == Diagnostic("type-mismatch", "term type mismatch", _body(n + 1),
                      _shown(cod, n), _shown(anns[0], n))
    # inferred: the innermost body fails at its own path
    assert _diagnostic(lambda: infer_term(env, _chain(anns, Var(n + 5)))) \
        == Diagnostic("unbound-var",
                      f"term variable #{n + 5} is not in scope", _body(n + 1))


def test_lambda_diagnostics_print_shifted_types(prelude):
    # spot checks of the printed form, under two type binders
    env = _under(prelude, 2)
    anns = CHAIN_ANNS[2]
    got = _diagnostic(lambda: check_term(env, _chain(anns, Var(2)),
                                         _arrows(anns[:2], OTHER[2])))
    assert str(got) == ("type-mismatch: lambda checked against a non-function "
                        "type at body.body (expected Maybe #3, found a lambda)")
    doms = [anns[0], anns[1], OTHER[2]]
    got = _diagnostic(lambda: check_term(env, _chain(anns, Var(2)),
                                         _arrows(doms, anns[0])))
    assert str(got) == ("type-mismatch: lambda annotation mismatch at "
                        "body.body (expected Maybe #3, found #3 -> #2)")
    env = _under(prelude, 2, LetDecl("leak", TVar(1), ZERO))
    got = _diagnostic(lambda: infer_term(env, _chain(anns, Ref("leak"))))
    assert str(got) == ("dependent-type: body type mentions the term binder "
                        "at body (found (#3 -> #2) -> #0)")
