"""Differential tests: the path search in `fdc.synthesis` against the list-based
search kept in `synthesis_oracle`."""

import random
import time

import pytest

import synthesis_oracle as oracle
from fdc import elaborate
from fdc.corpus import corpus_text
from fdc.elaborate import ElabOptions, Elaborator, elaborate_program
from fdc.printer import print_core
from fdc.subst import shift
from fdc.surface import parse_surface
from fdc.synthesis import Resolver, SynthError, hyps_inconsistent
from fdc.syntax import (
    EqTy, Forall, STAR, TApp, TCon, TmVarBind, TVar, TyVarBind,
)
from fdc.typecheck import check_program

CORPUS = ("superclasses.hsk", "fundeps.hsk", "fundeps_invalid.hsk")
BOOL = TCon("Bool")


def fundep_program(rng: random.Random, tag: str, ground: int,
                   structural: int, use: str) -> str:
    """A class `t -> u, u -> t` with `ground` ground instances,
    `structural` instances `F a b => F (S a) (R b)`, and a use site that is
    absent, resolves a dictionary, or types only through an improvement
    cast."""
    cls = f"F{tag}"
    dets = ["Int" if i == 0 and rng.random() < 0.5 else f"D{tag}{i}"
            for i in range(ground)]
    outs = ["Bool"] + [f"E{tag}{i}" for i in range(1, ground)]
    shells = [("Maybe", "Maybe") if j == 0 and rng.random() < 0.5
              else (f"S{tag}{j}", f"R{tag}{j}") for j in range(structural)]
    lines = [f"data {t} :: *;" for t in dets + outs if t not in ("Int", "Bool")]
    lines += [f"data {t} :: * -> *;" for pair in shells for t in pair
              if t != "Maybe"]
    lines.append(f"class {cls} t u | t -> u, u -> t;")
    order = list(range(ground))
    rng.shuffle(order)
    lines += [f"instance G{tag}{i} : {cls} {dets[i]} {outs[i]};"
              for i in order]
    lines += [f"instance H{tag}{j} : {cls} a b => {cls} ({s} a) ({r} b);"
              for j, (s, r) in enumerate(shells)]
    if use == "nocast":
        lines.append(f"let d{tag} :: {cls} {dets[0]} Bool "
                     f"= (_ :: {cls} {dets[0]} Bool);")
    elif use == "cast":
        lines.append(f"let f{tag} :: forall t. {cls} {dets[0]} t => t -> t"
                     f" = /\\ t. \\ d :: {cls} {dets[0]} t. not;")
    return "\n".join(lines) + "\n"


def superclass_program(rng: random.Random, tag: str, depth: int,
                       types: int) -> str:
    """A chain of `depth` classes, each the superclass of the next, an
    instance of each at `types` data types, and a use site that reaches the
    root's method from a dictionary of the last class."""
    classes = [f"C{tag}{i}" for i in range(depth)]
    tys = [f"T{tag}{i}" for i in range(types)]
    lines = [f"data {t} :: *;" for t in tys]
    for i, c in enumerate(classes):
        sup = f"{classes[i - 1]} a => " if i else ""
        lines.append(f"class {sup}{c} a where {{ m{tag}{i} :: a -> a -> Bool; }};")
    for t in tys:
        for i, c in enumerate(classes):
            body = rng.choice(["True", "False"])
            lines.append(f"instance I{tag}{t}{i} : {c} {t} where {{ m{tag}{i} = "
                         f"((\\ x :: {t}. \\ y :: {t}. {body}) "
                         f":: {t} -> {t} -> Bool); }};")
    top, root = classes[-1], classes[0]
    lines.append(f"let u{tag} :: forall a. {top} a => a -> a -> Bool = /\\ a. "
                 f"\\ d :: {top} a. \\ x :: a. \\ y :: a. "
                 f"m{tag}0 [a] (_ :: {root} a) x y;")
    lines.append(f"let t{tag} :: {top} {tys[0]} = (_ :: {top} {tys[0]});")
    return "\n".join(lines) + "\n"


def seeded_programs() -> list[tuple[str, str]]:
    """25 programs: fundep classes with 1-2 ground and 0-2 structural
    instances under every use site (an improvement cast with one ground
    instance only; `test_improvement_casts_with_several_ground_instances`
    takes two and three), superclass chains of depth 2-4 at 1-2 types, and overlapping
    instances."""
    rng = random.Random(4)
    out = []
    for k, (g, use, s) in enumerate(
            [(g, use, s) for g in (1, 2) for use in ("absent", "nocast", "cast")
             for s in (0, 1, 2) if not (g == 2 and use == "cast")]):
        out.append((f"fundep g={g} use={use} s={s}",
                    fundep_program(rng, f"x{k}", g, s, use)))
    for k, (depth, types) in enumerate([(2, 1), (2, 2), (3, 1), (3, 2),
                                        (4, 1), (4, 2), (2, 1), (3, 2),
                                        (4, 1)]):
        out.append((f"superclass depth={depth} types={types}",
                    superclass_program(rng, f"y{k}", depth, types)))
    out.append(("overlapping instances", OVERLAP))
    return out


# Two instances match `Ov Bool`: an ambiguity under "reject", the more
# specific one under "first".
OVERLAP = """data Tz :: *;
class Ov a where { ov :: a -> Bool; };
instance OvA : Ov a where { ov = ((\\ x :: a. True) :: a -> Bool); };
instance OvB : Ov Bool where { ov = ((\\ x :: Bool. False) :: Bool -> Bool); };
let dOv :: Ov Bool = (_ :: Ov Bool);
let eOv :: Ov Tz = (_ :: Ov Tz);
"""


def _elab(text: str, options: ElabOptions):
    decls, diags = elaborate_program(parse_surface(text), None, options)
    return print_core(decls), [str(d) for d in diags]


CASES = [(name, corpus_text(name)) for name in CORPUS] + seeded_programs()


def _use_the_list_search(monkeypatch):
    monkeypatch.setattr(elaborate, "Resolver", oracle.OracleResolver)


@pytest.mark.parametrize("overlap", ["reject", "first"])
def test_elaboration_matches_the_list_search(monkeypatch, overlap):
    options = ElabOptions(overlap=overlap)
    new = [_elab(text, options) for _, text in CASES]
    _use_the_list_search(monkeypatch)
    old = [_elab(text, options) for _, text in CASES]
    for (name, _), got, want in zip(CASES, new, old):
        assert got == want, name
    failed = [name for (name, _), (_, diags) in zip(CASES, new) if diags]
    assert failed == ["fundeps_invalid.hsk"] + (
        ["overlapping instances"] if overlap == "reject" else [])


def test_improvement_casts_with_several_ground_instances(prelude):
    # the instance search inside an improvement edge goes on from the
    # coercion search around it (its remaining depth, its open goals); when
    # it restarted at the full depth with no goal open, these recursed
    # without end. Without the failure table, sibling searches redid one
    # another's failures: from g = 6 on, each ground instance multiplied the
    # time by 5-9, to 6.6-13.5 s at g = 8 on a 2-core VM (0.08-0.26 s with
    # the table).
    for structural in (0, 2):
        for ground in range(1, 9):
            text = fundep_program(random.Random(1), "q", ground, structural,
                                  "cast")
            start = time.perf_counter()
            decls, diags = elaborate_program(parse_surface(text), prelude)
            assert time.perf_counter() - start < 2, (ground, structural)
            assert diags == []
            assert check_program(prelude, decls)[1] == []


def test_improvement_casts_match_the_list_search(monkeypatch):
    texts = [fundep_program(random.Random(1), "q", ground, structural, "cast")
             for ground in (2, 3) for structural in (0, 1)]
    new = [_elab(text, ElabOptions()) for text in texts]
    _use_the_list_search(monkeypatch)
    assert new == [_elab(text, ElabOptions()) for text in texts]
    assert all(diags == [] for _, diags in new)


def test_each_scope_is_built_once(monkeypatch, prelude):
    # a scope belongs to an environment and one exclusion set; the copies
    # an improvement edge makes share their resolver's scopes
    built = []
    build = Resolver._build_scope

    def counted(self, exclude):
        built.append((self.env, exclude))
        return build(self, exclude)

    monkeypatch.setattr(Resolver, "_build_scope", counted)
    for text in (corpus_text("fundeps.hsk"),
                 fundep_program(random.Random(1), "q", 2, 0, "cast")):
        built.clear()
        decls, diags = elaborate_program(parse_surface(text), prelude)
        assert diags == [] and built
        for k, (env, exclude) in enumerate(built):
            assert not any(e is env and x == exclude
                           for e, x in built[:k]), exclude


def test_each_search_state_computes_its_edges_once(monkeypatch, prelude):
    # in one scope, the improvement edges of a depth and a set of open goals
    # are computed once, unless their computation swallowed an
    # `ambiguous-instance` failure; the copies an improvement edge makes
    # share the table with their resolver
    computed, hits = [], 0
    edges_of = Resolver._improvement_edges

    def counted(self, scope, depth, exclude, active):
        nonlocal hits
        if (depth, active) in scope.edges:
            hits += 1
            return edges_of(self, scope, depth, exclude, active)
        ambiguities = self._ambiguities[0]
        edges = edges_of(self, scope, depth, exclude, active)
        computed.append((scope, depth, active,
                         self._ambiguities[0] != ambiguities))
        return edges

    monkeypatch.setattr(Resolver, "_improvement_edges", counted)
    for text in (corpus_text("fundeps.hsk"),
                 fundep_program(random.Random(1), "q", 2, 1, "cast")):
        computed.clear()
        hits = 0
        decls, diags = elaborate_program(parse_surface(text), prelude)
        assert diags == [] and computed and hits
        for k, (scope, depth, active, _) in enumerate(computed):
            assert all(ambiguous for s, d, a, ambiguous in computed[:k]
                       if s is scope and d == depth and a == active), depth


def _random_type(rng: random.Random, depth: int):
    pick = rng.random()
    if depth <= 0 or pick < 0.45:
        return rng.choice([TCon("Bool"), TCon("Int"), TVar(0), TVar(1),
                           TVar(2)])
    head = rng.choice([TCon("Maybe"), TVar(3)])
    if pick < 0.8:
        return TApp(head, _random_type(rng, depth - 1))
    return TApp(TApp(TCon("->"), _random_type(rng, depth - 1)),
                _random_type(rng, depth - 1))


def test_hyps_inconsistent_matches_the_list_closure():
    # the union-find closes every list; the oracle stops at 200 known pairs,
    # a cut that changes no verdict on these lists
    rng = random.Random(7)
    verdicts = []
    for _ in range(120):
        pairs = [(_random_type(rng, 3), _random_type(rng, 3))
                 for _ in range(rng.randint(1, 5))]
        got = hyps_inconsistent(pairs)
        assert got == oracle.hyps_inconsistent(pairs, 200), pairs
        verdicts.append(got)
    assert True in verdicts and False in verdicts


# A fundep class with overlapping instances: under "reject", a goal
# `Fo (Maybe t) Bool` is ambiguous once the search is deep enough to coerce
# `Maybe Bool` to `Maybe t`, so more depth can remove an improvement edge.
OVERLAPPING_FUNDEP = """class Fo t u | t -> u;
instance FoA : Fo a Bool;
instance FoC : Fo (Maybe Bool) Bool;
"""


def _scoped_resolvers(rng: random.Random, elab):
    """Three type variables, then 2-5 equality hypotheses or `F` or `Fo`
    dictionaries over them: the same scope for both searches, 2-4 deep,
    and the types in it."""
    env = elab.env.push(TyVarBind(STAR), TyVarBind(STAR), TyVarBind(STAR))
    n = rng.randint(2, 5)
    sides = []
    for m in range(n):
        pair = (_random_type(rng, 2), _random_type(rng, 2))
        sides += pair
        if rng.random() < 0.35:
            ty = TApp(TApp(TCon(rng.choice(["F", "Fo"])), pair[0]), pair[1])
        else:
            ty = EqTy(*pair, STAR)
        env = env.push(TmVarBind(shift(ty, m)))
    resolvers = _resolvers(env, elab, rng.randint(2, 4))
    return resolvers, [shift(t, n) for t in sides], n


def _resolvers(env, elab, depth: int):
    return [cls(env, elab.registry, synth_depth=depth, resolve_depth=depth)
            for cls in (Resolver, oracle.OracleResolver)]


def _ambiguous_scope(elab, depth: int):
    """Type variables `t` and `u`, a hypothesis `t ~ Bool` and a dictionary
    of `Fo (Maybe t) u`, and goals in an order that meets `Bool ~ u` at
    depth `depth` and then, nested, one less deep, also under a type
    binder. `Bool ~ u` is found at depth 2 through the improvement edge of
    `FoA`, and lost at depth 3, where `Fo (Maybe t) Bool` is ambiguous."""
    t, u, maybe = TVar(1), TVar(0), TCon("Maybe")
    env = elab.env.push(TyVarBind(STAR), TyVarBind(STAR),
                        TmVarBind(EqTy(t, BOOL, STAR)),
                        TmVarBind(shift(TApp(TApp(TCon("Fo"), TApp(maybe, t)),
                                             u), 1)))
    u = shift(u, 2)
    # the same goal again under a type binder, met by an inner resolver
    under = (Forall(STAR, BOOL), Forall(STAR, shift(u, 1)))
    goals = [(BOOL, u), (TApp(maybe, BOOL), TApp(maybe, u)), (BOOL, u),
             under, tuple(TApp(maybe, t) for t in under)]
    return _resolvers(env, elab, depth), goals


def _outcome(resolver, frm, to, exclude, depth=None):
    try:
        return resolver.synth(frm, to, depth, exclude=exclude)
    except SynthError as e:
        return e.diagnostic.code


def test_synth_matches_the_list_search(prelude):
    # each resolver answers several goals, so a failure tabled for one goal
    # is met again by the searches of the next
    elab = Elaborator(prelude)
    for d in parse_surface(corpus_text("fundeps.hsk") + OVERLAPPING_FUNDEP):
        elab.do_decl(d)
    for depth in (2, 3, 4):
        (new, old), goals = _ambiguous_scope(elab, depth)
        for frm, to in goals:
            got = _outcome(new, frm, to, frozenset())
            assert got == _outcome(old, frm, to, frozenset()), (depth, frm, to)
    rng = random.Random(11)
    found = 0
    for _ in range(80):
        (new, old), sides, n = _scoped_resolvers(rng, elab)
        for _ in range(4):
            frm, to = (rng.choice(sides) if rng.random() < 0.7
                       else shift(_random_type(rng, 2), n) for _ in range(2))
            exclude = frozenset(i for i in range(n) if rng.random() < 0.2)
            got = _outcome(new, frm, to, exclude)
            assert got == _outcome(old, frm, to, exclude), (frm, to)
            found += not isinstance(got, str)
    assert found > 50


def test_one_resolver_answers_each_depth_like_fresh_ones(prelude):
    # one resolver keeps its failure and edge tables across depths: asked
    # at depth 3 first, it has tabled what the ambiguity at depth 3 cost,
    # and at depth 2 it must still find `Bool ~ u`; asked at 2 first, it
    # must still lose it at 3
    elab = Elaborator(prelude)
    for d in parse_surface(corpus_text("fundeps.hsk") + OVERLAPPING_FUNDEP):
        elab.do_decl(d)
    outcomes = {}
    for order in ((3, 2, 4), (2, 3, 4)):
        (shared, _), goals = _ambiguous_scope(elab, order[0])
        for depth in order:
            (fresh, old), _ = _ambiguous_scope(elab, depth)
            for frm, to in goals:
                want = _outcome(old, frm, to, frozenset())
                assert _outcome(fresh, frm, to, frozenset()) == want
                got = _outcome(shared, frm, to, frozenset(), depth)
                assert got == want, (order, depth, frm, to)
                outcomes.setdefault(depth, []).append(isinstance(got, str))
    # `Bool ~ u` is found at depth 2 and lost at depth 3
    assert outcomes[2][0] is False and outcomes[3][0] is True
