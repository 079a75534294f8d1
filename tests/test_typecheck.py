import os

import pytest

from fdc import propcheck
from fdc.cli import _load_env_and_decls
from fdc.elaborate import ElabOptions
from fdc.parser import parse_term, parse_type
from fdc.propcheck import GenConfig, gen_well_typed
from fdc.syntax import (
    App, Con, Decl, Env, EqTy, Forall, KArr, Lam, Pattern, Ref, Refl, TApp,
    TCon, TmVarBind, TVar, TyVarBind, Var, ZERO, STAR, arrow, node_eq,
    spine_head, split_ctor_type,
)
from fdc.typecheck import (
    AnyType, CheckError, Diagnostic, Exactly, check_decl, check_env,
    check_program, check_term, classify, coerce_type, infer_term,
    is_data_head, is_open_head, kind_of, pattern_type,
)
from fdc.syntax import DataDecl, CtorDecl, OpenTypeDecl, OpenCtorDecl, \
    MethodDecl, InstanceDecl, LetDecl

BOOL = TCon("Bool")


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
    assert got == Exactly(arrow(BOOL, BOOL))


def test_infer_zero_and_choice_merge(prelude):
    assert infer_term(prelude, ZERO) == AnyType()
    got = infer_term(prelude, parse_term("0 <+> (\\x:Bool. x)"))
    assert got == Exactly(arrow(BOOL, BOOL))
    # cross-check in check mode
    check_term(prelude, parse_term("0 <+> (\\x:Bool. x)"), arrow(BOOL, BOOL))


def test_infer_choice_type_mismatch(prelude):
    with pytest.raises(CheckError):
        infer_term(prelude, parse_term("True <+> (\\x:Bool. x)"))


def test_neutral_spine_with_zero_argument_is_exact(prelude):
    # `x M1 ... Mn` stays exactly typed even when an argument is zero
    got = infer_term(prelude, parse_term("xor 0 True"))
    assert got == Exactly(BOOL)


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


def test_coerce_type_sym_trans():
    # h2 : Bool ~ u, k2 : Bool ~ v  gives  sym h2 ;; k2 : u ~ v
    env = Env().push(
        DataDecl("Bool", STAR), TyVarBind(STAR), TyVarBind(STAR),
        TmVarBind(EqTy(BOOL, TVar(1), STAR)),
        TmVarBind(EqTy(BOOL, TVar(1), STAR)))
    # binder telescope: u, v, h2 : Bool ~ u, k2 : Bool ~ v
    eta = parse_term("sym #1 ;; #0")
    lhs, rhs, kind = coerce_type(env, eta)
    assert lhs == TVar(3)   # u at this depth
    assert rhs == TVar(2)   # v
    assert kind == STAR


def test_coerce_type_application_of_refls(prelude):
    env = prelude.push(OpenTypeDecl("Eq", KArr(STAR, STAR)))
    lhs, rhs, kind = coerce_type(env, parse_term("refl(Eq) @ refl(Bool)"))
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
    lhs, rhs, kind = coerce_type(env, parse_term("(#1 ;; sym #0) .2"))
    assert lhs == TVar(3)   # a'
    assert rhs == TVar(2)   # a''
    assert kind == STAR


def test_coerce_type_shape_errors(prelude):
    with pytest.raises(CheckError):
        coerce_type(prelude, parse_term("refl(Bool) .1"))  # not an application
    with pytest.raises(CheckError):
        coerce_type(prelude, parse_term("refl(Bool) ;; refl(Int)"))
    with pytest.raises(CheckError):
        coerce_type(prelude, parse_term("refl(Bool) @[Int]"))


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
        got = classify(prelude, node)
        assert got == [expected], (node, got)


def test_classification_on_generated_terms():
    cfg = GenConfig(seed=21, size=15)
    for i in range(60):
        env, term, ty = gen_well_typed(cfg, i)
        assert classify(env, term) == ["term"]
        assert classify(env, ty) == ["type"]


def test_uniqueness_repeated_inference(prelude):
    term = parse_term("xor (not True) False")
    first = infer_term(prelude, term)
    second = infer_term(prelude, term)
    assert first == second == Exactly(BOOL)


def test_check_succeeds_whenever_infer_is_exact():
    cfg = GenConfig(seed=77, size=22)
    for i in range(150):
        env, term, _ = gen_well_typed(cfg, i)
        got = infer_term(env, term)
        if isinstance(got, Exactly):
            check_term(env, term, got.type)


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
    assert env.binder_depth() == depth
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
        _load_env_and_decls(os.path.join(corpus, name), ElabOptions())
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
