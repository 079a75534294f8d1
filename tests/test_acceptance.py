"""Acceptance criteria, one test per criterion, each printing a pass/fail
line and enforcing its stated time budget."""

import time

from fdc.analysis import check_no_zero_syntactic, extract_preamble, specialize
from fdc.corpus import corpus_text, prelude_env
from fdc.elaborate import elaborate_program
from fdc.parser import parse_term, parse_type
from fdc.printer import print_term
from fdc.propcheck import GenConfig, run_properties, run_subst_laws
from fdc.reduction import Value, step_det_tagged, whnf
from fdc.surface import parse_surface
from fdc.syntax import (
    App, CApp, Cast, Choice, Con, Fst, Guard, If, InstanceDecl, KArr, Lam,
    LetDecl, MethodDecl, OpenTypeDecl, Pattern, Ref, Refl, Sim, Snd, Sym, TApp,
    TCon, Trans, TyApp, TyLam, TVar, Univ, CInst, Var, ZERO, STAR, arrow,
    subnodes,
)
from fdc.typecheck import check_program, check_term

BOOL = TCon("Bool")
ARROW = TCon("->")


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s <= {budget}s): {label}")
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s"


def test_acceptance_1_golden_eq_ord():
    start = time.time()
    prelude = prelude_env()
    core, diags = elaborate_program(
        parse_surface(corpus_text("superclasses.hsk")), prelude)
    assert not diags
    env, cdiags = check_program(prelude, core)
    assert not cdiags
    assert OpenTypeDecl("Eq", KArr(STAR, STAR)) in core
    methods = {d.name: d.type for d in core if isinstance(d, MethodDecl)}
    assert methods["eq"] == parse_type("forall a:*. Eq a -> a -> a -> Bool")
    assert methods["ordEq"] == parse_type("forall a:*. Ord a -> Eq a")
    [eq_inst] = [d for d in core
                 if isinstance(d, InstanceDecl) and d.name == "eq"]
    double_cast = CApp(CApp(Refl(ARROW), Var(0)),
                       CApp(CApp(Refl(ARROW), Var(0)), Refl(BOOL)))
    assert any(s == double_cast for s in subnodes(eq_inst.body))
    report(1, "Eq/Ord surface program elaborates to the expected core",
           time.time() - start, 1.0)


def test_acceptance_2_golden_fundeps():
    start = time.time()
    prelude = prelude_env()
    core, diags = elaborate_program(
        parse_surface(corpus_text("fundeps.hsk")), prelude)
    assert not diags
    env, cdiags = check_program(prelude, core)
    assert not cdiags
    methods = {d.name: d.type for d in core if isinstance(d, MethodDecl)}
    assert methods["fdFwd"] == parse_type(
        "forall t:*. forall u:*. forall v:*. F t u -> F t v -> u ~ v")
    assert methods["fdBwd"] == parse_type(
        "forall t:*. forall u:*. forall v:*. F t u -> F v u -> t ~ v")
    fwd = [d.body for d in core
           if isinstance(d, InstanceDecl) and d.name == "fdFwd"]
    pairs = {extract_preamble(b).heads for b in fwd}
    assert pairs == {("FIB", "FIB"), ("FIB", "FMM"),
                     ("FMM", "FIB"), ("FMM", "FMM")}
    report(2, "dependency witnesses cover all four constructor pairs",
           time.time() - start, 1.0)


def test_acceptance_3_erroneous_instance_rejected():
    start = time.time()
    core, diags = elaborate_program(
        parse_surface(corpus_text("fundeps_invalid.hsk")), prelude_env())
    assert core == []
    assert any(d.code == "fundep-violation" for d in diags)
    report(3, "the contradictory instance is rejected with no output",
           time.time() - start, 1.0)


def test_acceptance_4_improvement_typing_and_evaluation():
    start = time.time()
    prelude = prelude_env()
    core, diags = elaborate_program(
        parse_surface(corpus_text("fundeps.hsk")), prelude)
    assert not diags
    env, _ = check_program(prelude, core)
    [f] = [d for d in core if isinstance(d, LetDecl) and d.name == "f"]
    witness = parse_term(
        "fdFwd [Int] [Bool] [#1] (FIB [Int] [Bool] refl(Int) refl(Bool)) #0")
    assert any(s == witness for s in subnodes(f.body))
    call = parse_term("f [Bool] (FIB [Int] [Bool] refl(Int) refl(Bool)) True")
    steps = [0]
    result = whnf(env, call, fuel=10000,
                  trace=lambda *_: steps.__setitem__(0, steps[0] + 1))
    assert result == Value(Con("False"))
    assert steps[0] <= 10000
    report(4, f"f [Bool] (FIB ...) True evaluates to False "
              f"in {steps[0]} steps", time.time() - start, 1.0)


def test_acceptance_5_metatheory_fuzz():
    start = time.time()
    names = ("progress", "preservation", "value_soundness",
             "canonicity_coercion", "canonicity_function",
             "uniqueness_mod_zero", "types_are_values")
    results = run_properties(names, GenConfig(seed=42, size=30, count=1000))
    for result in results:
        assert result.ok, str(result)
        assert result.cases == 1000
    report(5, "seven metatheory suites pass 1000 cases each across all "
              "bundled preludes", time.time() - start, 120.0)


def test_acceptance_6_substitution_laws():
    start = time.time()
    result = run_subst_laws(GenConfig(seed=7, size=10, count=10000))
    assert result.ok, str(result)
    assert result.cases == 10000
    report(6, "identity and composition laws hold on 10000 random pairs",
           time.time() - start, 10.0)


def test_acceptance_7_specialization():
    start = time.time()
    prelude = prelude_env()
    sc, _ = elaborate_program(parse_surface(corpus_text("superclasses.hsk")),
                              prelude)
    sc_env, _ = check_program(prelude, sc)
    fd, _ = elaborate_program(parse_surface(corpus_text("fundeps.hsk")),
                              prelude)
    fd_env, _ = check_program(prelude, fd)
    cases = [
        (sc_env, "lte [Bool] (OrdBool [Bool] refl(Bool)) False True", BOOL),
        (sc_env, "eq [Bool] (EqBool [Bool] refl(Bool)) True False", BOOL),
        (fd_env, "f [Bool] (FIB [Int] [Bool] refl(Int) refl(Bool)) True",
         BOOL),
    ]
    for env, text, ty in cases:
        call = parse_term(text)
        out = specialize(env, call)
        assert check_no_zero_syntactic(out), text
        check_term(env, out, ty)
        original = whnf(env, call)
        specialized = whnf(env, out)
        assert isinstance(original, Value) and isinstance(specialized, Value)
        assert _collapse(original.node) == _collapse(specialized.node)
    report(7, "specialized corpus calls are zero-free, well-typed, and "
              "agree with direct evaluation", time.time() - start, 5.0)


def _collapse(n):
    """Collapse singleton choice trees (both sides equal) to their leaf."""
    if isinstance(n, Choice):
        left = _collapse(n.left)
        right = _collapse(n.right)
        if left == right:
            return left
        return Choice(left, right)
    return n


def test_acceptance_8_reduction_rule_table():
    start = time.time()
    prelude = prelude_env()
    env = prelude.push(
        MethodDecl("pick", BOOL), InstanceDecl("pick", Con("True")),
        LetDecl("alias", BOOL, Con("False")))
    b = BOOL
    refl_b = Refl(b)
    lam_id = Lam(b, Var(0))
    seen: dict[str, int] = {}

    def exercise(term, want_tag, want=None):
        got = step_det_tagged(env, term)
        assert got is not None, print_term(term)
        tag, out = got
        assert tag == want_tag, (print_term(term), tag, want_tag)
        if want is not None:
            assert out == want, (print_term(out), print_term(want))
        seen[tag] = seen.get(tag, 0) + 1

    # redex rules
    exercise(App(lam_id, Con("True")), "β→", Con("True"))
    exercise(TyApp(TyLam(STAR, Lam(TVar(0), Var(0))), b), "β∀", lam_id)
    exercise(Sym(refl_b), "δ_refl", refl_b)
    exercise(Trans(refl_b, refl_b), "δ_;", refl_b)
    exercise(CApp(Refl(TCon("Maybe")), refl_b), "δ_@",
             Refl(TApp(TCon("Maybe"), b)))
    exercise(CInst(Refl(parse_type("forall t:*. t -> t")), b), "δ_@[]",
             Refl(arrow(b, b)))
    exercise(Fst(Refl(TApp(TCon("Maybe"), b))), "δ_fst", Refl(TCon("Maybe")))
    exercise(Snd(Refl(TApp(TCon("Maybe"), b))), "δ_snd", refl_b)
    exercise(Sim(refl_b, Refl(TCon("Int"))), "δ_~",
             Refl(parse_type("Bool ~ Int")))
    exercise(Univ(STAR, Refl(TVar(0))), "δ_∀",
             Refl(parse_type("forall t:*. t")))
    exercise(Cast(Con("True"), refl_b), "δ_▷", Con("True"))
    exercise(Choice(ZERO, Con("True")), "β_0-1", Con("True"))
    exercise(Choice(Con("True"), ZERO), "β_0-2", Con("True"))
    exercise(If(Con("True"), Pattern("True", ()), Con("False"), Con("True")),
             "δ_if-1", Con("False"))
    exercise(If(Con("False"), Pattern("True", ()), Con("False"), Con("True")),
             "δ_if-2", Con("True"))
    just_true = parse_term("Just [Bool] True")
    exercise(Guard(just_true, Pattern("Just", (b,)), lam_id), "δ_guard-1",
             App(lam_id, Con("True")))
    exercise(Guard(parse_term("Nothing [Bool]"), Pattern("Just", (b,)),
                   lam_id), "δ_guard-2", ZERO)
    exercise(Ref("pick"), "β_open", Choice(ZERO, Con("True")))
    exercise(Ref("alias"), "β_let", Con("False"))

    # zeta absorption of 0 through every absorptive frame kind
    zeta_frames = [
        App(ZERO, Con("True")), TyApp(ZERO, b), Cast(Con("True"), ZERO),
        If(ZERO, Pattern("True", ()), Con("False"), Con("True")),
        Guard(ZERO, Pattern("Just", (b,)), lam_id),
        Sym(ZERO), Trans(ZERO, refl_b), Trans(refl_b, ZERO),
        CApp(ZERO, refl_b), CApp(refl_b, ZERO), Fst(ZERO), Snd(ZERO),
        Univ(STAR, ZERO), CInst(ZERO, b), Sim(ZERO, refl_b),
        Sim(refl_b, ZERO),
    ]
    for frame in zeta_frames:
        exercise(frame, "ζ", ZERO)
    # deep absorption collapses a whole absorptive path at once
    exercise(Cast(Con("True"), Sym(Trans(ZERO, refl_b))), "ζ", ZERO)

    # kappa distribution through Cast and App frames
    vchoice = Choice(refl_b, refl_b)
    exercise(Cast(Con("True"), vchoice), "κ",
             Choice(Cast(Con("True"), refl_b), Cast(Con("True"), refl_b)))
    lchoice = Choice(lam_id, Lam(b, Con("True")))
    exercise(App(lchoice, Con("False")), "κ",
             Choice(App(lam_id, Con("False")),
                    App(Lam(b, Con("True")), Con("False"))))

    # congruence: an inner redex steps inside a full evaluation frame
    inner = App(App(lam_id, lam_id), Con("True"))
    got = step_det_tagged(env, inner)
    assert got is not None and got[0] == "β→"
    assert got[1] == App(lam_id, Con("True"))
    seen["ξ"] = 1

    expected_tags = {
        "β→", "β∀", "δ_refl", "δ_;", "δ_@", "δ_@[]", "δ_fst", "δ_snd",
        "δ_~", "δ_∀", "δ_▷", "β_0-1", "β_0-2", "ζ", "δ_if-1", "δ_if-2",
        "δ_guard-1", "δ_guard-2", "β_open", "β_let", "κ", "ξ",
    }
    assert set(seen) == expected_tags
    report(8, f"all {len(expected_tags)} reduction rule tags exercised "
              f"({sum(seen.values())} checks)", time.time() - start, 1.0)
