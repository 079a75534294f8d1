import random
import sys
import threading
import time
from collections import Counter

import pytest

import reduction_oracle as oracle
from fdc import analysis
from fdc.analysis import AnalysisError, specialize
from fdc.parser import parse_term, parse_type
from fdc.propcheck import GenConfig, gen_well_typed
from fdc.reduction import (
    DEFAULT_FUEL, Diverges, Hit, IsValue, IsZero, Miss, NotReady, OutOfFuel,
    Stepped, Stuck, Value, eval_all, is_value, match_pattern, step_all,
    step_det, step_det_tagged, whnf,
)
from fdc.syntax import (
    App, CApp, Cast, Choice, Con, Fst, If, Lam, Node, Pattern, Ref, Refl, Sim,
    Snd, Sym, TApp, TCon, Trans, TyApp, Var, ZERO, arrow,
)

BOOL = TCon("Bool")


def test_values_per_grammar(prelude):
    assert is_value(parse_term("refl(Bool)"))
    assert not is_value(ZERO)
    assert not is_value(parse_term("(\\x:Bool. x) True"))  # lambda head
    assert is_value(parse_term("True"))
    assert is_value(parse_term("\\x:Bool. x"))
    assert is_value(parse_term("/\\t:*. \\x:t. x"))
    # constant-headed spines are lazy values even with reducible arguments
    assert is_value(parse_term("Just [Bool] ((\\x:Bool. x) True)"))
    assert is_value(Choice(Refl(BOOL), Refl(BOOL)))
    assert not is_value(Choice(Refl(BOOL), ZERO))
    # open-function and let references are not values
    assert not is_value(Ref("not"))


def test_types_are_values(prelude):
    for text in ("Bool", "Maybe Bool", "forall t:*. t -> t", "Bool ~ Bool"):
        assert is_value(parse_type(text))


def test_match_pattern_hit_on_instantiated_guard():
    scrut = parse_term("EqBool [Bool] refl(Bool)")
    got = match_pattern(scrut, Pattern("EqBool", (BOOL,)))
    assert got == Hit(((False, Refl(BOOL)),))


def test_match_pattern_miss_on_different_heads():
    scrut = parse_term("FIB [Int] [Bool] #0 #1")
    got = match_pattern(scrut, Pattern("FMM", (TCon("Int"), BOOL)))
    assert got == Miss()


def test_match_pattern_residual_spine():
    scrut = parse_term("FMM [#0] [#1] [#2] [#3] #4 #5 #6")
    got = match_pattern(scrut, Pattern("FMM", (parse_type("#0"),
                                               parse_type("#1"))))
    assert isinstance(got, Hit)
    kinds = [is_ty for is_ty, _ in got.args]
    assert kinds == [True, True, False, False, False]


def test_match_pattern_not_ready_and_arity_miss():
    assert match_pattern(Var(0), Pattern("True", ())) == NotReady()
    assert match_pattern(parse_term("(\\x:Bool. x) True"),
                         Pattern("True", ())) == NotReady()
    # fewer leading type arguments than the pattern demands
    scrut = parse_term("FMM [#0] #1")
    assert match_pattern(scrut, Pattern("FMM", (parse_type("#0"),
                                                parse_type("#1")))) == Miss()


def test_step_all_cast_refl(prelude):
    m = parse_term("True |> refl(Bool)")
    assert Con("True") in step_all(prelude, m)


def test_step_all_zero_choice_rules(prelude):
    m = parse_term("0 <+> True")
    assert Con("True") in step_all(prelude, m)
    m2 = parse_term("True <+> 0")
    assert Con("True") in step_all(prelude, m2)


def test_step_all_open_unfold(superclasses_env):
    succs = step_all(superclasses_env, Ref("eq"))
    [unfolded] = succs
    # 0 <+> body, a single instance
    assert isinstance(unfolded, Choice)
    assert unfolded.left == ZERO


def test_open_unfold_two_instances_shape(prelude):
    from fdc.syntax import MethodDecl, InstanceDecl
    env = prelude.push(
        MethodDecl("pick", arrow(BOOL, BOOL)),
        InstanceDecl("pick", parse_term("\\x:Bool. x")),
        InstanceDecl("pick", parse_term("\\x:Bool. not x")))
    [unfolded] = step_all(env, Ref("pick"))
    m1 = parse_term("\\x:Bool. x")
    m2 = parse_term("\\x:Bool. not x")
    assert unfolded == Choice(ZERO, Choice(m1, m2))


def test_step_det_examples(prelude, fundeps_env):
    tag, out = step_det_tagged(prelude, parse_term("sym (refl(Bool))"))
    assert (tag, out) == ("δ_refl", Refl(BOOL))
    guard = parse_term("guard FIB [#0] [#1] #2 #3 is FMM [#0] [#1] then 0")
    tag, out = step_det_tagged(fundeps_env, guard)
    assert (tag, out) == ("δ_guard-2", ZERO)
    tag, out = step_det_tagged(prelude, parse_term("0 [Bool]"))
    assert (tag, out) == ("ζ", ZERO)


def test_step_det_member_of_step_all(prelude):
    cfg = GenConfig(seed=33, size=20)
    for i in range(150):
        env, term, _ = gen_well_typed(cfg, i)
        result = step_det(env, term)
        if isinstance(result, Stepped):
            assert result.node in step_all(env, term)
        else:
            assert isinstance(result, (IsValue, IsZero))


def test_step_det_outcomes(prelude):
    assert step_det(prelude, Con("True")) == IsValue()
    assert step_det(prelude, ZERO) == IsZero()
    # ill-formed stuck term: projecting a non-application coercion variable
    from fdc.syntax import Fst
    stuck = Fst(Refl(BOOL))
    assert isinstance(step_det(prelude, stuck), Stuck)


def test_whnf_truth_table(prelude):
    # `not` encoded with If: full truth table
    for arg, expected in (("True", "False"), ("False", "True")):
        result = whnf(prelude, parse_term(f"not {arg}"))
        assert isinstance(result, Value)
        assert result.node == Con(expected)
    for a in ("True", "False"):
        for b in ("True", "False"):
            result = whnf(prelude, parse_term(f"xor {a} {b}"))
            want = "True" if a != b else "False"
            assert result.node == Con(want)


def test_whnf_value_consumes_no_fuel(prelude):
    result = whnf(prelude, parse_term("refl(Bool)"), fuel=0)
    assert result == Value(Refl(BOOL))


def test_whnf_fuel_exhaustion(prelude):
    # each `not` takes more than one step, and no term repeats on the way
    result = whnf(prelude, not_chain(60, "True"), fuel=50)
    assert isinstance(result, OutOfFuel)


@pytest.mark.parametrize("fuel", [50, DEFAULT_FUEL])
def test_whnf_reports_the_absurdco_cycle(fundeps_env, fuel):
    # β_open, β_0-1 and two β∀ unfold `absurdCo [Bool] [Int]` to itself
    looping = parse_term("absurdCo [Bool] [Int]")
    start = time.perf_counter()
    result = whnf(fundeps_env, looping, fuel=fuel)
    assert time.perf_counter() - start < 0.5
    assert result == Diverges(looping, 4)


def test_whnf_fdfwd_reduces_to_refl_tree(fundeps_env):
    term = parse_term(
        "fdFwd [Int] [Bool] [Bool] (FIB [Int] [Bool] refl(Int) refl(Bool)) "
        "(FIB [Int] [Bool] refl(Int) refl(Bool))")
    result = whnf(fundeps_env, term)
    assert isinstance(result, Value)
    # canonicity: the value at coercion type is a tree of refls
    def refl_tree(n):
        match n:
            case Refl(_):
                return True
            case Choice(l, r):
                return refl_tree(l) and refl_tree(r)
        return False
    assert refl_tree(result.node)


def test_eval_all_enumerates_outcomes(prelude):
    from fdc.syntax import MethodDecl, InstanceDecl
    env = prelude.push(
        MethodDecl("pick", BOOL),
        InstanceDecl("pick", Con("True")),
        InstanceDecl("pick", Con("False")))
    terminals, exhausted = eval_all(env, Ref("pick"), fuel=500)
    assert exhausted
    # a choice of values is itself a value: both outcomes live in the tree
    assert Choice(Con("True"), Con("False")) in terminals
    # scrutinizing the choice distributes it, and both branches run
    term2 = parse_term("if pick is True then False else True")
    terminals2, _ = eval_all(env, term2, fuel=500)
    leaves = set()

    def collect(n):
        if isinstance(n, Choice):
            collect(n.left)
            collect(n.right)
        else:
            leaves.add(n)

    for t in terminals2:
        collect(t)
    assert Con("True") in leaves and Con("False") in leaves


def test_trace_reports_rule_tags(prelude):
    tags = []
    whnf(prelude, parse_term("not True"), trace=lambda t, _: tags.append(t))
    assert tags[0] == "β_let"
    assert "δ_if-1" in tags or "δ_if-2" in tags


def test_match_pattern_same_head_different_type_args():
    scrut = parse_term("EqBool [Bool] refl(Bool)")
    got = match_pattern(scrut, Pattern("EqBool", (TCon("Int"),)))
    assert got == Miss()


# ------------------------------------------------------------ deep terms

def sym_tower(depth):
    term = Trans(Refl(BOOL), Refl(BOOL))
    for _ in range(depth):
        term = Sym(term)
    return term


def not_chain(depth, leaf):
    term = Con(leaf)
    for _ in range(depth):
        term = App(Ref("not"), term)
    return term


def xor_chain(bits):
    term = Con(bits[-1])
    for b in reversed(bits[:-1]):
        term = App(App(Ref("xor"), Con(b)), term)
    return term


def test_whnf_sym_400_under_half_a_second(prelude):
    term = sym_tower(400)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert whnf(prelude, term) == Value(Refl(BOOL))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5


def test_whnf_sym_3000_needs_no_recursion(prelude):
    assert whnf(prelude, sym_tower(3000)) == Value(Refl(BOOL))


# -------------------------------------- differential tests against the oracle

def _whnf_trace(whnf_fn, env, term, fuel):
    steps = []
    result = whnf_fn(env, term, fuel, lambda tag, n: steps.append((tag, n)))
    return result, steps


def assert_diverges_like_oracle(term, result, steps, want_steps):
    """A `Diverges` after n steps: the trace so far is the oracle's, which
    goes on to its fuel, and on the oracle's terms the one after step n is
    the repeated term, equal to the one after step n - period and to none
    in between."""
    n, period = len(steps), result.period
    assert steps == want_steps[:n]
    terms = [term, *(m for _, m in want_steps)]
    assert terms[n] == terms[n - period] == result.node
    assert all(terms[n] != terms[n - q] for q in range(1, period))


def assert_agrees_with_oracle(env, term, fuel, samples):
    """The same whnf trace as the original walkers (up to a repeat, where
    the engine stops), and the same step_all successor lists, in order, on
    about `samples` terms along it."""
    result, steps = _whnf_trace(whnf, env, term, fuel)
    want, want_steps = _whnf_trace(oracle.whnf, env, term, fuel)
    if isinstance(result, Diverges):
        assert_diverges_like_oracle(term, result, steps, want_steps)
    else:
        assert (result, steps) == (want, want_steps)
    terms = [term, *(n for _, n in steps)]
    for n in terms[::max(1, len(terms) // samples)]:
        assert step_all(env, n) == oracle.step_all(env, n)


def _admin_normal_form(normalize, env, term):
    try:
        return normalize(env, term, [300])
    except AnalysisError as e:
        return e.diagnostic


def _specialized(specialize_fn, env, term):
    try:
        return specialize_fn(env, term)
    except AnalysisError as e:
        return e.diagnostic


def assert_specializes_like_oracle(env, term):
    assert (_specialized(specialize, env, term)
            == _specialized(oracle.specialize, env, term))


def assert_same_method_site(env, term):
    site = analysis._method_site(env, term)
    want = oracle._find_method_site(env, term)
    assert (site and site.node) is want
    if want is not None:
        assert site.plug(ZERO) == oracle._replace_once(term, want, ZERO)


@pytest.mark.parametrize("prelude_index", range(4))
def test_engine_matches_oracle_on_generated_terms(prelude_index):
    """The first 200 acceptance-5 cases (seed 42) of each bundled prelude.
    Full specialization of a generated term can unfold `absurdCo` without
    end, so the specializer's normalizer and call-site search are compared
    on their own."""
    cfg = GenConfig(seed=42, size=30)
    for i in range(prelude_index, 800, 4):
        env, term, _ = gen_well_typed(cfg, i)
        assert_agrees_with_oracle(env, term, fuel=300, samples=6)
        normal = _admin_normal_form(analysis._admin_normalize, env, term)
        assert normal == _admin_normal_form(oracle._admin_normalize, env,
                                            term)
        assert_same_method_site(env, term)
        if isinstance(normal, Node):
            assert_same_method_site(env, normal)


def test_whnf_outcomes_match_oracle_on_a_thousand_cases():
    """Acceptance 5's seed-42 cases at the fuzz suites' fuel: every value,
    zero and stuck term is the oracle's, and every repeat holds on the
    oracle's trace. The 41 `absurdCo` loops among them all repeat."""
    cfg, kinds = GenConfig(seed=42, size=30), Counter()
    for i in range(1000):
        env, term, _ = gen_well_typed(cfg, i)
        result, steps = _whnf_trace(whnf, env, term, 2000)
        kinds[type(result)] += 1
        if isinstance(result, Diverges):
            assert not is_value(result.node) and result.node != ZERO
            want = _whnf_trace(oracle.whnf, env, term, len(steps))[1]
            assert_diverges_like_oracle(term, result, steps, want)
        else:
            assert result == oracle.whnf(env, term, 2000)
    assert kinds[Diverges] == 41 and kinds[OutOfFuel] == 0


def test_engine_matches_oracle_on_chains(prelude):
    for depth in (1, 2, 3, 5, 10, 20, 40):
        bits = (["True", "False", "False"] * depth)[:depth + 1]
        for term in (not_chain(depth, "True"), xor_chain(bits)):
            assert_agrees_with_oracle(prelude, term, fuel=5000, samples=10)
            assert_specializes_like_oracle(prelude, term)
    for depth in (0, 1, 2, 5, 10, 20, 40, 80):
        assert_agrees_with_oracle(prelude, sym_tower(depth), fuel=5000,
                                  samples=10)


def test_refocus_rechecks_if_above_a_reduced_spine_head(prelude):
    # after β_let, `just True` has a constructor head, so the `if` two
    # frames up becomes a redex although its child did not change class
    from fdc.syntax import LetDecl
    env = prelude.push(LetDecl("just", parse_type("Bool -> Maybe Bool"),
                               TyApp(Con("Just"), BOOL)))
    term = If(App(Ref("just"), Con("True")), Pattern("Just", (BOOL,)),
              Lam(BOOL, Var(0)), Con("False"))
    assert_agrees_with_oracle(env, term, fuel=50, samples=5)
    assert whnf(env, term) == Value(Con("True"))


def test_engine_matches_oracle_on_corpus_calls(superclasses_env, fundeps_env):
    fib = "(FIB [Int] [Bool] refl(Int) refl(Bool))"
    ord_bool = "(OrdBool [Bool] refl(Bool))"
    eq_bool = "(EqBool [Bool] refl(Bool))"
    calls = [
        (superclasses_env, f"lte [Bool] {ord_bool} False True"),
        (superclasses_env, f"eq [Bool] {eq_bool} True False"),
        (fundeps_env, f"f [Bool] {fib} True"),
        (fundeps_env, f"fdFwd [Int] [Bool] [Bool] {fib} {fib}"),
    ]
    for env, text in calls:
        term = parse_term(text)
        assert_agrees_with_oracle(env, term, fuel=5000, samples=20)
        assert_specializes_like_oracle(env, term)


# ------------------------------------- eval_all against the oracle's search

def _corpus_calls(superclasses_env, fundeps_env):
    """(env, call, fuel) for the corpus methods at every input and both
    dictionary forms: a named dictionary and one written out."""
    ord_bool = "(OrdBool [Bool] refl(Bool))"
    eq_bool = "(EqBool [Bool] refl(Bool))"
    fib = "(FIB [Int] [Bool] refl(Int) refl(Bool))"
    calls = []
    for x in ("True", "False"):
        for y in ("True", "False"):
            for d in ("dOrdBool", ord_bool):
                calls.append((superclasses_env, f"lte [Bool] {d} {x} {y}",
                              500))
            for d in ("dEqBool", eq_bool):
                calls.append((superclasses_env, f"eq [Bool] {d} {x} {y}",
                              500))
        for d in ("dFIB", fib):
            calls.append((fundeps_env, f"f [Bool] {d} {x}", 200))
    for d in ("dFIB", fib):
        calls.append((fundeps_env, f"fdFwd [Int] [Bool] [Bool] {d} dFIB",
                      200))
    return calls


def test_eval_all_matches_oracle_search_on_corpus_calls(superclasses_env,
                                                        fundeps_env):
    exhausted = 0
    for env, text, fuel in _corpus_calls(superclasses_env, fundeps_env):
        term = parse_term(text)
        got = eval_all(env, term, fuel)
        assert got == oracle.eval_all(env, term, fuel), text
        exhausted += got[1]
    assert exhausted  # both outcomes of the search are compared


def test_eval_all_matches_oracle_search_on_generated_terms():
    cfg = GenConfig(seed=42, size=30)
    for i in range(50):
        env, term, _ = gen_well_typed(cfg, i)
        assert eval_all(env, term, 100) == oracle.eval_all(env, term, 100), i


# ------------------------------------------- regions: the ζ/κ of step_all

_CO_LEAVES = (Refl(BOOL), Refl(TCon("Int")), Refl(TApp(TCon("Maybe"), BOOL)))
_TM_LEAVES = (Con("True"), Con("False"), Ref("not"), Lam(BOOL, Var(0)))


def region_term(rng, depth, coercion):
    """A random term (or coercion) of absorptive frames: `Sym`, `;;`, `@`,
    `.1`, `.2` and `sim` over coercions, and a cast's coercion, an `if`'s
    scrutinee and an application's head over terms, with `0`s and choices
    at any depth, in both sorts. It need not be well typed."""
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.2:
            return ZERO
        return rng.choice(_CO_LEAVES if coercion else _TM_LEAVES)
    co = lambda: region_term(rng, depth - 1, True)
    tm = lambda: region_term(rng, depth - 1, False)
    sub = co if coercion else tm
    if rng.random() < 0.15:
        return Choice(sub(), sub())
    if coercion:
        return rng.choice([
            lambda: Sym(co()), lambda: Trans(co(), co()),
            lambda: CApp(co(), co()), lambda: Fst(co()), lambda: Snd(co()),
            lambda: Sim(co(), co())])()
    return rng.choice([
        lambda: Cast(tm(), co()), lambda: App(tm(), tm()),
        lambda: If(tm(), Pattern(rng.choice(("True", "False"))), tm(), tm()),
        lambda: TyApp(tm(), BOOL)])()


def test_step_all_and_eval_all_match_oracle_on_region_heavy_terms(prelude):
    rng = random.Random(2020)
    kinds = Counter()
    for i in range(400):
        term = region_term(rng, 5, coercion=i % 2 == 1)
        succs = step_all(prelude, term)
        assert succs == oracle.step_all(prelude, term), term
        kinds[bool(succs)] += 1
        if i % 4 == 0:
            assert (eval_all(prelude, term, 30)
                    == oracle.eval_all(prelude, term, 30)), term
    assert kinds[True] > 300  # most terms step


def _calls_made(fn, *args):
    """The Python and builtin calls `fn(*args)` makes, counted by a profile
    hook: a count of the work, where a timing would be noise."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def test_step_all_on_a_sym_tower_does_work_linear_in_its_depth(prelude):
    # a node's ζ/κ items come from its children's: the work per node does
    # not grow with the depth of the region below it. The towers are hashed
    # as they are built, so the count is the walk's alone
    calls = {}
    for n in (200, 400):
        term = Trans(Refl(BOOL), Refl(BOOL))
        for _ in range(n):
            term = Sym(term)
            hash(term)
        calls[n] = _calls_made(step_all, prelude, term)
    assert calls[400] <= 2 * calls[200] + 100, calls


def test_step_all_lists_belong_to_the_caller(prelude):
    from fdc.syntax import MethodDecl, InstanceDecl
    env = prelude.push(
        MethodDecl("pick", BOOL),
        InstanceDecl("pick", Con("True")),
        InstanceDecl("pick", Con("False")))
    term = parse_term("if pick is True then not False else True")
    want_steps = step_all(env, term)
    want_search = eval_all(env, term, 500)
    for m in (term, *want_steps):
        got = step_all(env, m)
        got.clear()
        got.append(ZERO)
    assert step_all(env, term) == want_steps == oracle.step_all(env, term)
    assert eval_all(env, term, 500) == want_search


def _on_a_fresh_stack(fn, *args):
    """`fn(*args)`, or the `RecursionError` it raised, run in a new thread:
    its stack holds none of the test runner's frames, so the recursion
    depth left is the same as in a script."""
    out = []

    def run():
        try:
            out.append(fn(*args))
        except RecursionError as e:
            out.append(e)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


def test_step_all_on_the_deepest_not_chain_the_whole_term_walk_handled(
        prelude):
    # `step_all` and `eval_all` key their memo by node; a node's hash is
    # stored when it is built, so hashing the chain walks none of its
    # arguments, which no evaluation-context walk enters either
    term = not_chain(10_000, "True")
    succs = _on_a_fresh_stack(step_all, prelude, term)
    assert succs == [App(prelude.let_def("not").body, term.arg)]
    terminals, exhausted = _on_a_fresh_stack(
        lambda env, m: eval_all(env, m, 20), prelude, term)
    assert terminals == [] and not exhausted


def test_whnf_on_deep_terms_from_a_fresh_thread(prelude, fundeps_env):
    assert _on_a_fresh_stack(whnf, prelude, not_chain(10_000, "True")) \
        == Value(Con("True"))
    assert _on_a_fresh_stack(whnf, prelude, sym_tower(3000)) \
        == Value(Refl(BOOL))
    # a loop under 3,000 `not`s: the repeat check compares whole terms over
    # an explicit stack, where `==` ran out of recursion depth
    term = Cast(Con("True"), parse_term("absurdCo [Bool] [Bool]"))
    for _ in range(3000):
        term = App(Ref("not"), term)
    result = _on_a_fresh_stack(whnf, fundeps_env, term)
    assert isinstance(result, Diverges) and result.period == 4


def test_specialize_unfolds_a_deep_let_chain_through_the_engine(prelude):
    # lets unfold by the normalizer's β_let, with no recursive substitution
    # over the term; a recursive walk ran out of stack from depth 400
    term = not_chain(1000, "True")
    out = _on_a_fresh_stack(specialize, prelude, term)
    assert isinstance(out, Node)
    assert analysis.check_no_zero_syntactic(out)
    assert whnf(prelude, out) == whnf(prelude, term) == Value(Con("True"))
