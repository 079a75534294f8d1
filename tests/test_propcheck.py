import gc
import hashlib
import random
import types
import weakref

import pytest

from fdc import propcheck
from fdc.propcheck import (
    ALL_PROPERTIES, BOOL, MEMO_SIZE, PRELUDES, PROPERTIES, GenConfig,
    Generator, PropResult, env_table, gen_well_typed, prelude_for,
    run_properties, run_property, run_subst_laws, shrink,
)
from fdc.printer import print_node, print_term
from fdc.reduction import is_value, step_all
from fdc.subst import instantiate_all
from fdc.syntax import (
    App, Choice, EqTy, Refl, STAR, TApp, TCon, arrow, subnodes, Zero,
)
from fdc.typecheck import check_term


def test_generator_soundness_all_preludes():
    cfg = GenConfig(seed=101, size=30)
    for i in range(400):
        env, term, ty = gen_well_typed(cfg, i)
        check_term(env, term, ty)  # raises on any ill-typed sample


def test_generator_produces_lambda_free_envs():
    cfg = GenConfig(seed=3, size=10)
    for i in range(8):
        env, _, _ = gen_well_typed(cfg, i)
        assert env.is_lambda_free()


def test_generator_zero_only_inside_choice():
    from fdc.syntax import children
    cfg = GenConfig(seed=17, size=25)
    saw_zero = False
    for i in range(300):
        _, term, _ = gen_well_typed(cfg, i)
        # zeros appear, and every zero has a choice parent by construction
        stack = [(term, None)]
        while stack:
            node, parent = stack.pop()
            if isinstance(node, Zero):
                saw_zero = True
                assert isinstance(parent, Choice)
            for c in children(node):
                stack.append((c, node))
    assert saw_zero


def test_replay_determinism():
    cfg = GenConfig(seed=99, size=20, count=60)
    first = run_property("preservation", cfg)
    second = run_property("preservation", cfg)
    assert first.ok and second.ok
    terms1 = [print_term(gen_well_typed(cfg, i)[1]) for i in range(30)]
    terms2 = [print_term(gen_well_typed(cfg, i)[1]) for i in range(30)]
    assert terms1 == terms2


def test_distinct_seeds_vary():
    a = [print_term(gen_well_typed(GenConfig(seed=1, size=20), i)[1])
         for i in range(20)]
    b = [print_term(gen_well_typed(GenConfig(seed=2, size=20), i)[1])
         for i in range(20)]
    assert a != b


def test_size_budget_zero_yields_canonical_refl():
    cfg = GenConfig(seed=5, size=0, prelude="bool")
    for i in range(40):
        env, term, ty = gen_well_typed(cfg, i)
        if isinstance(ty, EqTy):
            assert term == Refl(ty.lhs)


def test_each_property_passes_small_run():
    for name in ALL_PROPERTIES:
        result = run_property(name, GenConfig(seed=23, size=22, count=80))
        assert result.ok, str(result)


def test_property_failure_is_detected():
    # a deliberately broken "value": zero must not count as one; feed the
    # checker a synthetic counterexample path by checking the harness shape
    result = PropResult("demo", 3, "boom")
    assert not result.ok and "boom" in str(result)


def test_canonicity_choice_of_refls(prelude):
    # a choice of refls is a legitimate coercion value
    term = Choice(Refl(TCon("Bool")), Refl(TCon("Bool")))
    assert is_value(term)
    assert step_all(prelude, term) == []


def test_subst_laws_bulk():
    result = run_subst_laws(GenConfig(seed=31, size=10, count=2000))
    assert result.ok


def test_prelude_for_caches_and_checks():
    for name in ("bool", "maybe", "eqord", "fundep"):
        env = prelude_for(name)
        assert env.is_lambda_free()
    assert prelude_for("eqord") is prelude_for("eqord")


def test_an_unknown_prelude_is_rejected():
    with pytest.raises(ValueError, match="bool, maybe, eqord, fundep"):
        prelude_for("nope")
    with pytest.raises(ValueError, match="'nope'"):
        run_property("progress", GenConfig(prelude="nope", count=5))


def test_shrinking_reduces_counterexamples():
    from fdc.propcheck import shrink, prelude_for
    from fdc.parser import parse_term
    from fdc.syntax import Con, TCon
    env = prelude_for("bool")

    def fails_if_mentions_true(env, term, ty):
        from fdc.syntax import subnodes
        if any(s == Con("True") for s in subnodes(term)):
            return "contains True"
        return None

    big = parse_term("xor (not (xor True False)) False")
    small = shrink(env, big, TCon("Bool"), fails_if_mentions_true)
    assert small == Con("True")


# SHA-256 over `print_term(term)` and `print_node(ty)` of seed-42, size-30
# cases 0..699, then of the zero-free cases 0..299. A change that alters
# the generated terms on purpose updates it and says so.
GENERATED_DIGEST = (
    "cd56040a0de07ec4b86fc6f367598b86f1e5adcc6631fb8fb87de6dd5b49461a")


def _printed(cfg, i):
    _, term, ty = gen_well_typed(cfg, i)
    return print_term(term) + "\n" + print_node(ty) + "\n"


def test_generated_terms_are_pinned():
    h = hashlib.sha256()
    for cfg, n in ((GenConfig(seed=42, size=30), 700),
                   (GenConfig(seed=42, size=30, allow_zero=False), 300)):
        for i in range(n):
            h.update(_printed(cfg, i).encode())
    assert h.hexdigest() == GENERATED_DIGEST


def test_generation_is_the_same_cold_and_warm():
    """Case k prints the same from cold memos (a fresh generator over a
    cleared `env_table`) as after 50 other cases warmed them: in the
    environment's table, and in one generator that built those cases
    before case k's draws are replayed on it."""
    cfg = GenConfig(seed=42, size=30)
    for k in (2, 57, 403):
        env_table.cache_clear()
        cold = _printed(cfg, k)
        for i in range(k + 1, k + 51):
            gen_well_typed(cfg, i)
        assert _printed(cfg, k) == cold
        env = prelude_for(PRELUDES[k % len(PRELUDES)])
        pool = propcheck._goal_pool(PRELUDES[k % len(PRELUDES)])
        warm = Generator(env, random.Random(0))
        for i in range(50):
            for goal in pool:
                try:
                    warm.term((), goal, cfg.size)
                except propcheck.GiveUp:
                    pass
        assert warm._canonical
        warm.rng = random.Random(cfg.seed * 1_000_003 + k)
        for _ in range(20):
            goal = warm.rng.choice(pool)
            try:
                term = warm.term((), goal, cfg.size)
            except propcheck.GiveUp:
                continue
            break
        assert print_term(term) + "\n" + print_node(goal) + "\n" == cold


class _TracedRandom(random.Random):
    """A `random.Random` that feeds each `_randbelow(n)` and `random()`
    call, with its result, to its `trace`: `randrange` and `choice` reach
    the source through `_randbelow`."""

    def _randbelow(self, n):
        r = super()._randbelow(n)
        self.trace.update(f"b {n} {r}\n".encode())
        return r

    def random(self):
        x = super().random()
        self.trace.update(f"r {x!r}\n".encode())
        return x


# SHA-256 of the trace of every draw seed-42, size-30 cases 0..99 make:
# the same terms from other draws would leave `GENERATED_DIGEST` as it is
# but move this one.
DRAW_TRACE_DIGEST = (
    "2e3c78a27af325d5a9149a4b7bc4ab7fdbdaa7140b71385d1426de52a06bbb71")


def test_generation_draws_are_pinned(monkeypatch):
    trace = hashlib.sha256()

    def traced(seed):
        rng = _TracedRandom(seed)
        rng.trace = trace
        return rng

    monkeypatch.setattr(propcheck.random, "Random", traced)
    cfg = GenConfig(seed=42, size=30)
    for i in range(100):
        gen_well_typed(cfg, i)
    assert trace.hexdigest() == DRAW_TRACE_DIGEST


def _outcome(gen, goal):
    try:
        return print_term(gen.term((), goal, 30))
    except propcheck.GiveUp:
        return None


@pytest.mark.parametrize("prelude, goal, sizes", [
    # no instance of F has the canonical form F Bool Bool; at larger sizes
    # the fundep prelude's `absurdCo` does build one (seed 7 fails at 5)
    ("fundep", TApp(TApp(TCon("F"), BOOL), BOOL), (0, 5)),
    # nothing in the maybe prelude proves Bool ~ Maybe Bool, at any size
    ("maybe", EqTy(BOOL, TApp(TCon("Maybe"), BOOL), STAR), (0, 30)),
])
def test_uninhabited_goals_give_up_and_leave_the_generator_as_fresh(
        prelude, goal, sizes):
    """`term` and `canonical` raise `GiveUp` at a goal they cannot build,
    and the generator then builds each pool goal as a fresh one does from
    the same `rng` state."""
    env = prelude_for(prelude)
    gen = Generator(env, random.Random(7))
    for size in sizes:
        with pytest.raises(propcheck.GiveUp):
            gen.term((), goal, size)
    with pytest.raises(propcheck.GiveUp):
        gen.canonical((), goal)
    fresh = Generator(env, random.Random())
    fresh.rng.setstate(gen.rng.getstate())
    pool = propcheck._goal_pool(prelude)
    built = [_outcome(gen, g) for g in pool]
    assert built == [_outcome(fresh, g) for g in pool]
    assert all(built)


def test_memos_stay_bounded_and_die_with_their_case(monkeypatch):
    """After 2,000 cases every `EnvTable` memo holds at most `MEMO_SIZE`
    entries, no generator outlives its case, and the `(scope, goal)` memos
    of a live generator are not reachable from its environment's table."""
    generators = []

    class Recorded(Generator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            generators.append(weakref.ref(self))

    monkeypatch.setattr(propcheck, "Generator", Recorded)
    env_table.cache_clear()
    cfg = GenConfig(seed=42, size=30)
    for i in range(2000):
        gen_well_typed(cfg, i)
    gc.collect()
    assert len(generators) == 2000
    assert all(ref() is None for ref in generators)
    tables = {id(t): t for t in map(env_table, map(prelude_for, PRELUDES))}
    for table in tables.values():
        for memo in (table.spine_options, table.inhabitant, table.patterns):
            assert 0 < memo.cache_info().currsize <= MEMO_SIZE

    env = prelude_for("fundep")
    live = Generator(env, random.Random(1))
    live.term((), arrow(BOOL, BOOL), cfg.size)
    memos = {id(live), id(live._canonical)}
    assert live._canonical
    seen, todo = set(), [env_table(env)]
    while todo:  # everything the table reaches, short of code and modules
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    assert not memos & seen


def test_env_tables_are_per_environment():
    eqord, fundep = prelude_for("eqord"), prelude_for("fundep")
    env_table.cache_clear()
    table_eq, table_fd = env_table(eqord), env_table(fundep)
    assert table_eq is not table_fd and env_table(eqord) is table_eq

    def heads(table):
        return {head.name for head, _, _ in table.spine_options(BOOL)}

    assert {"eq", "lt", "lte"} <= heads(table_eq)
    assert "f" not in heads(table_eq)
    assert "f" in heads(table_fd)
    assert not {"eq", "lt", "lte"} & heads(table_fd)
    f_int_bool = TApp(TApp(TCon("F"), TCon("Int")), BOOL)
    fds = ("FIB", "FMM")
    assert table_eq.patterns(f_int_bool, fds) == ()
    assert [p.head for p, _, _ in table_fd.patterns(f_int_bool, fds)] == [
        "FIB", "FMM"]
    assert table_eq.open_scrutinees != table_fd.open_scrutinees


def test_spine_options_hold_instantiated_argument_types():
    """Each option's argument types are the callable's declared ones,
    instantiated at the option's type arguments."""
    instantiated = 0
    for name in PRELUDES:
        table = env_table(prelude_for(name))
        declared = {head: args for head, _, args, _ in table.callables}
        for goal in propcheck._goal_pool(name):
            for head, type_args, args in table.spine_options(goal):
                assert args == tuple(instantiate_all(a, type_args)
                                     for a in declared[head])
                instantiated += args != declared[head]
    assert instantiated  # `Just`'s argument at `Maybe Bool`, among others


def _run_alone(name, cfg):
    """One suite over its own generation pass: the reference that
    `run_properties` must agree with."""
    prop = PROPERTIES[name]
    for i in range(cfg.count):
        env, term, ty = gen_well_typed(cfg, i)
        failure = prop(env, term, ty)
        if failure is not None:
            small = shrink(env, term, ty, prop)
            detail = (f"seed={cfg.seed} case={i}\n"
                      f"term: {print_term(term)}\n"
                      f"type: {print_node(ty)}\n{failure}")
            if small is not term:
                detail += f"\nshrunk: {print_term(small)}"
            return PropResult(name, i + 1, detail)
    return PropResult(name, cfg.count)


def _fails_on_choice(env, term, ty):
    if any(isinstance(sub, Choice) for sub in subnodes(term)):
        return "contains a choice"
    return None


def _fails_on_app(env, term, ty):
    if any(isinstance(sub, App) for sub in subnodes(term)):
        return "contains an application"
    return None


def test_run_properties_matches_each_suite_alone(monkeypatch):
    monkeypatch.setitem(PROPERTIES, "no_choice", _fails_on_choice)
    monkeypatch.setitem(PROPERTIES, "no_app", _fails_on_app)
    cfg = GenConfig(seed=8, size=12, count=40)
    names = ("no_choice", "progress", "uniqueness_mod_zero", "no_app",
             "subst_laws")
    together = run_properties(names, cfg)
    assert [r.name for r in together] == list(names)
    assert not together[0].ok and not together[3].ok
    for name, result in zip(names, together):
        if name == "subst_laws":
            assert result == run_subst_laws(cfg)
            continue
        alone = cfg
        if name == "uniqueness_mod_zero":
            alone = GenConfig(seed=8, size=12, count=40, allow_zero=False)
        assert result == _run_alone(name, alone)
        assert result == run_property(name, cfg)


def test_run_properties_generates_each_case_once_per_setting(monkeypatch):
    calls = []
    real = propcheck.gen_well_typed

    def counted(cfg, i):
        calls.append((cfg.allow_zero, i))
        return real(cfg, i)

    monkeypatch.setattr(propcheck, "gen_well_typed", counted)
    results = run_properties(tuple(PROPERTIES), GenConfig(seed=4, size=10,
                                                          count=25))
    assert all(r.ok and r.cases == 25 for r in results)
    assert sorted(calls) == sorted(
        [(True, i) for i in range(25)] + [(False, i) for i in range(25)])


def test_run_properties_rejects_an_unknown_suite():
    with pytest.raises(KeyError):
        run_properties(("progress", "nope"), GenConfig(count=1))


_UNSEEN_CLASS = """
class G a b | a -> b where { g :: a -> b -> Bool; };
instance GB : G Bool (Maybe Bool) where {
  g = ((\\ x :: Bool. \\ y :: Maybe Bool. x) :: Bool -> Maybe Bool -> Bool);
};
instance GM : G a b => G (Maybe a) b where {
  g = ((\\ x :: Maybe a. \\ y :: b. True) :: Maybe a -> b -> Bool);
};
"""


def test_the_generator_reads_a_new_class_off_the_environment():
    """A class and instances the generator has never seen: its guard
    scrutinee and canonical dictionary come from the environment, and the
    terms generated at them check."""
    from fdc.elaborate import elaborate_program
    from fdc.propcheck import Generator
    from fdc.surface import parse_surface
    from fdc.syntax import Con, Guard, TyApp, arrow
    from fdc.typecheck import check_program
    base = prelude_for("bool")
    decls, diags = elaborate_program(parse_surface(_UNSEEN_CLASS), base)
    assert not diags, diags
    env, cdiags = check_program(base, decls)
    assert not cdiags, cdiags
    maybe_bool = TApp(TCon("Maybe"), BOOL)
    g = TApp(TApp(TCon("G"), BOOL), maybe_bool)
    assert env_table(env).open_scrutinees == ((g, ("GB", "GM")),)
    gen = Generator(env, random.Random(0))
    assert gen.canonical((), g) == App(App(
        TyApp(TyApp(Con("GB"), BOOL), maybe_bool), Refl(BOOL)),
        Refl(maybe_bool))
    # GB's premises are not reflexive here, and GM's include a dictionary;
    # the second call answers from the generator's memo
    for _ in range(2):
        with pytest.raises(propcheck.GiveUp):
            gen.canonical((), TApp(TApp(TCon("G"), maybe_bool), BOOL))
    checked, guarded = 0, set()
    for goal in (g, BOOL, arrow(g, BOOL)):
        for seed in range(200):
            term = Generator(env, random.Random(seed)).term((), goal, 20)
            check_term(env, term, goal)
            checked += 1
            guarded |= {s.pat.head for s in subnodes(term)
                        if isinstance(s, Guard)}
    assert checked == 600 and guarded == {"GB", "GM"}


def test_a_free_quantifier_is_filled_only_at_kind_star():
    """`K`'s outer quantifier has kind `* -> *` and no part of the goal
    binds it, so `K` is no spine option: `Bool` there is ill-kinded."""
    from fdc.parser import parse_core
    from fdc.propcheck import Generator
    from fdc.typecheck import check_program
    env, diags = check_program(prelude_for("bool"), parse_core("""
        data T : * -> *;
        ctor K : forall f:* -> *. forall a:*. a -> T a;
        ctor J : forall a:*. a -> T a;
    """))
    assert not diags, diags
    goal = TApp(TCon("T"), BOOL)
    assert [h.name for h, _, _ in env_table(env).spine_options(goal)] == [
        "J"]
    for seed in range(50):
        check_term(env, Generator(env, random.Random(seed)).term(
            (), goal, 8), goal)
