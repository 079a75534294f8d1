"""Type-directed random generation of well-typed terms and executable
versions of the metatheory as property suites.

Generation inverts the typing rules: every production is type-correct by
construction, so the checker acts as an oracle over the generator's output
rather than a filter. Environments are built from bundled preludes and are
lambda-free, which is the premise of the progress suite.

What generation reads off an environment is computed once per `Env`, in
its `EnvTable`: the callables with their types split, the spine options
for each goal, the patterns for each scrutinee, each type's canonical
inhabitant (its first constructor whose premises are all reflexive) and
the open types a `guard` can scrutinize (the head of each one's first
ground instance, with all its instances). No class or instance name is
written into the generator: a program's own classes and instances are
generated from its environment. Only the goal pool and the `if`
scrutinees (`_goal_pool`, `_CLOSED_SCRUTINEES`) still name the bundled
preludes' types.

Each `Generator` builds one case. It memoizes, by `(scope, goal)`, the
variables of the goal in the scope and the canonical term of the goal;
neither draws from the generator's `rng`, so the terms and the draws are
those an unmemoized generator makes. These memos die with the generator,
and only the bounded `EnvTable` memos outlive a case.

`run_properties` checks many suites over one generation pass: each case
is generated once per `allow_zero` setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter
from typing import Callable, Optional

from .corpus import prelude_env, require_clean
from .printer import print_node, print_term, print_type
from .reduction import is_value, step_all, whnf, Value
from .subst import (
    IDENTITY, Rename, Replace, Subst, apply, compose, instantiate_all,
    is_closed, lift, shift,
)
from .syntax import (
    Node, Star, KArr, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref, Lam,
    App, TyLam, TyApp, Cast, Pattern, If, Guard, Choice, Refl, Sym,
    Trans, CApp, Fst, Snd, Univ, CInst, Sim, Env, CtorDecl, OpenCtorDecl,
    OpenTypeDecl, MethodDecl, LetDecl, STAR, ZERO, applied, arrow,
    loose_range, node_eq, plug_spine, spine, spine_head, split_ctor_type,
    subnodes, type_spine, un_arrow,
)
from .synthesis import match_type
from .typecheck import (
    AnyType, CheckError, check_term, infer_term, kind_of, pattern_type,
)

PRELUDES = ("bool", "maybe", "eqord", "fundep")

_EQORD_SURFACE = """
class Eq a where { eq :: a -> a -> Bool; };
instance EqBool : Eq Bool where {
  eq = ((\\ b :: Bool. \\ c :: Bool. not (xor b c)) :: Bool -> Bool -> Bool);
};
class Eq a => Ord a where { lt :: a -> a -> Bool; };
instance OrdBool : Ord Bool where {
  lt = ((\\ b :: Bool. \\ c :: Bool. or (not b) c) :: Bool -> Bool -> Bool);
};
let lte :: forall a. Ord a => a -> a -> Bool
  = /\\ a. \\ d :: Ord a. \\ x :: a. \\ y :: a.
    or (lt [a] (_ :: Ord a) x y) (eq [a] (_ :: Eq a) x y);
"""

_FUNDEP_SURFACE = """
class F t u | t -> u, u -> t;
instance FIB : F Int Bool;
instance FMM : F a b => F (Maybe a) (Maybe b);
let f :: forall t. F Int t => t -> t = /\\ t. \\ d :: F Int t. not;
"""


@lru_cache(maxsize=None)
def prelude_for(name: str) -> Env:
    """The checked environment of a bundled prelude: "bool" and "maybe" are
    both the prelude itself, one `Env`, and the others extend it. Each type
    the generator aims at in it must be declared there."""
    if name not in PRELUDES:
        raise ValueError(f"unknown prelude {name!r}: expected one of "
                         f"{', '.join(PRELUDES)}")
    what = f"bundled prelude {name!r}"
    env = prelude_env() if name == "bool" else prelude_for("bool")
    if name in ("eqord", "fundep"):
        from .elaborate import Elaborator
        from .surface import parse_surface
        text = _EQORD_SURFACE if name == "eqord" else _FUNDEP_SURFACE
        elab = Elaborator(env)
        require_clean(what, elab.run(parse_surface(text)))
        env = elab.env
    for goal in _goal_pool(name):
        try:
            kind_of(env, goal)
        except CheckError as e:
            require_clean(what, [e.diagnostic])
    return env


BOOL = TCon("Bool")


def _goal_pool(name: str) -> list[Node]:
    b = BOOL
    bb = arrow(b, b)
    pool = [b, bb, arrow(b, bb), EqTy(b, b, STAR),
            Forall(STAR, arrow(TVar(0), TVar(0)))]
    if name == "maybe":
        mb = TApp(TCon("Maybe"), b)
        pool += [mb, TApp(TCon("Maybe"), mb), arrow(mb, b),
                 EqTy(mb, mb, STAR),
                 Forall(STAR, arrow(TVar(0), TApp(TCon("Maybe"), TVar(0))))]
    if name == "eqord":
        pool += [TApp(TCon("Eq"), b), TApp(TCon("Ord"), b),
                 EqTy(b, b, STAR), arrow(TApp(TCon("Eq"), b), b)]
    if name == "fundep":
        fib = TApp(TApp(TCon("F"), TCon("Int")), b)
        pool += [fib, EqTy(b, b, STAR),
                 TApp(TCon("Maybe"), b), arrow(fib, b)]
    return pool


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    size: int = 30
    count: int = 100
    prelude: Optional[str] = None  # None cycles all bundled preludes
    allow_zero: bool = True


@dataclass
class PropResult:
    """A suite's verdict. `gen_s` is the generation time of the pass the
    suite ran in, `check_s` the time in its own property calls and
    shrinking; neither takes part in comparisons."""
    name: str
    cases: int
    counterexample: Optional[str] = None
    gen_s: float = field(default=0.0, compare=False)
    check_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.name}: pass ({self.cases} cases)"
        return f"{self.name}: FAIL after {self.cases} cases\n{self.counterexample}"


WEIGHTS = {
    "canonical": 2,
    "lambda": 6,
    "spine": 5,
    "choice": 2,
    "zero_choice": 2,
    "cast": 2,
    "if": 3,
    "guard": 3,
    "app": 2,
    "coercion_ops": 4,
    "var": 4,
}


class GiveUp(Exception):
    pass


# Entries kept by each memo below. Seed-42 generation of 700 cases meets
# 288 distinct spine goals in the fundep prelude, most of them once.
MEMO_SIZE = 256

# The closed-type scrutinees of `If`, with their constructors.
_CLOSED_SCRUTINEES = ((BOOL, ("True", "False")),
                      (TApp(TCon("Maybe"), BOOL), ("Just", "Nothing")))


class EnvTable:
    """What generation reads off one environment, computed once: the
    callables (constructors, open functions and lets) with their types
    split, the open-type scrutinees, and three memos keyed by type, each
    of at most `MEMO_SIZE` entries: `spine_options(goal)`,
    `inhabitant(goal)` and `patterns(scrut_ty, ctors)`. `Env` is
    immutable, so nothing here goes stale."""

    def __init__(self, env: Env):
        self.env = env
        callables = []
        for e in env.entries:
            match e:
                case CtorDecl(name, ty) | OpenCtorDecl(name, ty):
                    head = Con(name)
                case MethodDecl(name, ty) | LetDecl(name, ty, _):
                    head = Ref(name)
                case _:
                    continue
            kinds, args, cod = split_ctor_type(ty)
            callables.append((head, tuple(kinds), tuple(args), cod))
        self.callables = tuple(callables)
        scrutinees = []
        for e in env.entries:
            if isinstance(e, OpenTypeDecl):
                head = self._ground_head(e.name)
                if head is not None:
                    scrutinees.append(
                        (head, tuple(c.name for c in env.ctors_of(e.name))))
        self.open_scrutinees = tuple(scrutinees)
        self.spine_options = lru_cache(MEMO_SIZE)(self._spine_options)
        self.inhabitant = lru_cache(MEMO_SIZE)(self._inhabitant)
        self.patterns = lru_cache(MEMO_SIZE)(self._patterns)

    def _ground_head(self, name: str) -> Optional[Node]:
        """The head of the first ground instance of the open type `name`:
        one whose premises are all `H ~ a`, with `H` closed and the `a`s the
        head's own arguments in order."""
        for c in self.env.ctors_of(name):
            _, args, cod = split_ctor_type(c.type)
            if all(isinstance(a, EqTy) and is_closed(a.lhs) for a in args) \
                    and [a.rhs for a in args] == type_spine(cod)[1]:
                return applied(name, [a.lhs for a in args])
        return None

    def _spine_options(self, goal: Node,
                       ) -> tuple[tuple[Node, tuple, tuple], ...]:
        """Each callable whose codomain matches `goal`: its head, the type
        arguments that make it match (outermost quantifier first) and its
        declared argument types instantiated at them. The type arguments
        are parts of `goal` or `Bool`; an instantiated argument type is a
        node of the entry's own when the declared one is open."""
        options = []
        for head, kinds, args, cod in self.callables:
            type_args = _instantiation(kinds, cod, goal)
            if type_args is not None:
                options.append((head, type_args, tuple(
                    instantiate_all(a, type_args) for a in args)))
        return tuple(options)

    def _inhabitant(self, goal: Node) -> Optional[Node]:
        """The first constructor of `goal`'s head, in declaration order,
        whose codomain matches `goal` and whose arguments then all read
        `t ~ t`, applied to its type arguments and `Refl t` proofs; None
        when there is none."""
        head = spine_head(goal)
        if not isinstance(head, TCon):
            return None
        for c in self.env.ctors_of(head.name):
            kinds, args, cod = split_ctor_type(c.type)
            type_args = _instantiation(kinds, cod, goal)
            if type_args is None:
                continue
            proofs = [instantiate_all(a, type_args) for a in args]
            if all(isinstance(p, EqTy) and node_eq(p.lhs, p.rhs)
                   for p in proofs):
                return plug_spine(Con(c.name),
                                  [(True, t) for t in type_args]
                                  + [(False, Refl(p.lhs)) for p in proofs])
        return None

    def _patterns(self, scrut_ty: Node, ctors: tuple[str, ...],
                  ) -> tuple[tuple[Pattern, tuple, tuple], ...]:
        """Fully-instantiated patterns against `scrut_ty`, each with its
        residual binder kinds and argument types, the i-th argument type
        shifted by i: the annotation of the consequent's i-th `Lam`."""
        _, scrut_args = type_spine(scrut_ty)
        pats = []
        for cname in ctors:
            sig = self.env.ctor_sig(cname)
            if sig is None:
                continue
            kinds, _, _ = split_ctor_type(sig.type)
            take = min(len(kinds), len(scrut_args))
            pat = Pattern(cname, tuple(scrut_args[:take]))
            try:
                res_kinds, arg_tys, _ = pattern_type(self.env, pat, scrut_ty)
            except CheckError:
                continue
            pats.append((pat, tuple(res_kinds),
                         tuple(shift(t, i) for i, t in enumerate(arg_tys))))
        return tuple(pats)


def _instantiation(kinds, cod: Node, goal: Node) -> Optional[tuple]:
    """The type arguments, outermost quantifier first, under which `cod`
    quantified by `kinds` matches `goal`; a quantifier the match leaves
    free is `Bool` when it has kind `*`, and None when it has another."""
    binding: dict[int, Node] = {}
    n = len(kinds)
    if not match_type(cod, goal, n, binding):
        return None
    for i in range(n):  # de Bruijn index i is quantifier n - 1 - i
        if i not in binding:
            if not node_eq(kinds[n - 1 - i], STAR):
                return None
            binding[i] = BOOL  # free quantifier: any * type works
    return tuple(binding[n - 1 - pos] for pos in range(n))


@lru_cache(maxsize=len(PRELUDES) * 2)
def env_table(env: Env) -> EnvTable:
    """The generation table of `env`, kept for the few most recent
    environments (an `Env` hashes by identity)."""
    return EnvTable(env)


class Generator:
    """Builds well-typed closed terms against a lambda-free environment.
    A scope is a tuple of binder types, innermost last; the `(scope,
    goal)` memos live as long as the generator (see the module docstring)."""

    def __init__(self, env: Env, rng: random.Random,
                 allow_zero: bool = True):
        self.env = env
        self.table = env_table(env)
        self.rng = rng
        self.allow_zero = allow_zero
        self._hits: dict[tuple[tuple, Node], tuple[Var, ...]] = {}
        self._canonical: dict[tuple[tuple, Node], Node | type] = {}

    def term(self, scope: tuple, goal: Node, size: int) -> Node:
        """A term of the goal type; scope holds binder types, innermost
        last, each expressed at its own binding point."""
        if size <= 0:
            return self.canonical(scope, goal)
        # weighted choice with fallback: failed productions defer to others
        attempts = self._productions(scope, goal, size)
        total = sum(w for w, _ in attempts)
        while attempts:
            pick = self.rng.randrange(total)
            acc = 0
            for chosen, (w, _) in enumerate(attempts):
                acc += w
                if pick < acc:  # always met: pick < total
                    break
            w, fn = attempts.pop(chosen)
            total -= w
            try:
                return fn()
            except GiveUp:
                continue
        return self.canonical(scope, goal)

    def _productions(self, scope, goal, size):
        w = WEIGHTS
        out = [(w["canonical"], lambda: self.canonical(scope, goal))]
        out.append((w["var"], lambda: self._scope_var(scope, goal)))
        out.append((w["spine"], lambda: self._spine(scope, goal, size)))
        out.append((w["choice"], lambda: Choice(
            self.term(scope, goal, size // 2),
            self.term(scope, goal, size // 2))))
        if self.allow_zero:
            out.append((w["zero_choice"], lambda: self._zero_choice(
                scope, goal, size)))
        out.append((w["cast"], lambda: Cast(
            self.term(scope, goal, size // 2),
            self.coercion_node(scope, goal, size // 2))))
        out.append((w["if"], lambda: self._match(scope, goal, size, False)))
        out.append((w["guard"], lambda: self._match(scope, goal, size, True)))
        out.append((w["app"], lambda: self._app(scope, goal, size)))
        match goal:
            case TApp(TApp(TCon("->"), dom), cod):
                out.append((w["lambda"], lambda: Lam(
                    dom, self.term(scope + (dom,), shift(cod, 1),
                                   size - 1))))
            case Forall(k, body):
                out.append((w["lambda"], lambda: TyLam(
                    k, self.term(scope + (k,), body, size - 1))))
            case EqTy(l, r, _) if node_eq(l, r):
                out.append((w["coercion_ops"],
                            lambda: self.coercion_node(scope, l, size)))
        return out

    def _zero_choice(self, scope, goal, size):
        inhabited = self.term(scope, goal, size // 2)
        if self.rng.random() < 0.5:
            return Choice(ZERO, inhabited)
        return Choice(inhabited, ZERO)

    def _in_scope(self, scope: tuple, goal: Node) -> tuple[Var, ...]:
        """The variables of type `goal` in `scope`, innermost first."""
        key = (scope, goal)
        hits = self._hits.get(key)
        if hits is None:
            hits = self._hits[key] = tuple(self._scan(scope, goal))
        return hits

    @staticmethod
    def _scan(scope: tuple, goal: Node):
        reach = loose_range(goal)
        for i, ty in enumerate(reversed(scope)):
            if isinstance(ty, (Star, KArr)):
                continue  # type binder
            # a shift by i + 1 raises an open type's loose range by i + 1:
            # only a type that lands on the goal's range can match it
            r = loose_range(ty)
            if r == 0:
                if reach == 0 and node_eq(ty, goal):
                    yield Var(i)
            elif r + i + 1 == reach and node_eq(shift(ty, i + 1), goal):
                yield Var(i)

    def _scope_var(self, scope, goal):
        hits = self._in_scope(scope, goal)
        if not hits:
            raise GiveUp
        return self.rng.choice(hits)

    def _spine(self, scope, goal, size):
        """A declared constructor, open function, or let applied to matching
        arguments."""
        options = self.table.spine_options(goal)
        if not options:
            raise GiveUp
        head, type_args, args = self.rng.choice(options)
        budget = max(size - 1, 0) // max(len(args), 1)
        return plug_spine(head, [(True, t) for t in type_args] + [
            (False, self.term(scope, a, budget)) for a in args])

    def _app(self, scope, goal, size):
        dom = self.rng.choice([BOOL, arrow(BOOL, BOOL)])
        fun = self.term(scope, arrow(dom, goal), size // 2)
        arg = self.term(scope, dom, size // 2)
        return App(fun, arg)

    def _match(self, scope, goal, size, guard: bool):
        """An `If` on a closed-type scrutinee, or a `Guard` on an open-type
        one, with a fully-instantiated pattern against it."""
        choices = (self.table.open_scrutinees if guard
                   else _CLOSED_SCRUTINEES)
        if not choices:
            raise GiveUp
        scrut_ty, ctors = self.rng.choice(choices)
        pats = self.table.patterns(scrut_ty, ctors)  # after the draw
        if not pats:
            raise GiveUp
        scrut = self.term(scope, scrut_ty, size // 3)
        pat, res_kinds, lams = self.rng.choice(pats)
        cons = self._consequent(scope, res_kinds, lams, goal, size // 3)
        if guard:
            return Guard(scrut, pat, cons)
        return If(scrut, pat, cons, self.term(scope, goal, size // 3))

    def _consequent(self, scope, res_kinds, lams, goal, size):
        body = self.term(scope + res_kinds + lams,
                         shift(goal, len(res_kinds) + len(lams)), size)
        for ann in reversed(lams):
            body = Lam(ann, body)
        for k in reversed(res_kinds):
            body = TyLam(k, body)
        return body

    # -- coercions at reflexive goals

    def coercion_node(self, scope, ty: Node, size: int) -> Node:
        """A coercion term proving `ty ~ ty`."""
        if size <= 0:
            return Refl(ty)
        roll = self.rng.random()
        if roll < 0.3:
            return Refl(ty)
        if roll < 0.45:
            return Sym(self.coercion_node(scope, ty, size - 1))
        if roll < 0.6:
            return Trans(self.coercion_node(scope, ty, size // 2),
                         self.coercion_node(scope, ty, size // 2))
        if roll < 0.7 and isinstance(ty, TApp):
            return CApp(self.coercion_node(scope, ty.fun, size // 2),
                        self.coercion_node(scope, ty.arg, size // 2))
        if roll < 0.75 and isinstance(ty, EqTy):
            return Sim(self.coercion_node(scope, ty.lhs, size // 2),
                       self.coercion_node(scope, ty.rhs, size // 2))
        if roll < 0.8 and isinstance(ty, Forall):
            return Univ(ty.kind,
                        self.coercion_node(scope + (ty.kind,), ty.body,
                                           size - 1))
        if roll < 0.9:
            return Choice(self.coercion_node(scope, ty, size // 2),
                          self.coercion_node(scope, ty, size // 2))
        return Refl(ty)

    # -- canonical small inhabitants

    def canonical(self, scope: tuple, goal: Node) -> Node:
        """The innermost variable of type `goal` in scope, else a small
        inhabitant read off the goal's shape or the environment."""
        key = (scope, goal)
        out = self._canonical.get(key)
        if out is None:
            try:
                out = self._canonical_miss(scope, goal)
            except GiveUp:
                out = GiveUp
            self._canonical[key] = out
        if out is GiveUp:
            raise GiveUp
        return out

    def _canonical_miss(self, scope: tuple, goal: Node) -> Node:
        hits = self._in_scope(scope, goal)
        if hits:
            return hits[0]
        match goal:
            case TApp(TApp(TCon("->"), dom), cod):
                return Lam(dom, self.canonical(scope + (dom,), shift(cod, 1)))
            case Forall(k, body):
                return TyLam(k, self.canonical(scope + (k,), body))
            case EqTy(l, r, _) if node_eq(l, r):
                return Refl(l)
        term = self.table.inhabitant(goal)
        if term is None:
            raise GiveUp
        return term


def gen_well_typed(cfg: GenConfig, case_index: int = 0,
                   ) -> tuple[Env, Node, Node]:
    """One generated (environment, term, type) triple; the environment is
    lambda-free and the term checks against the type."""
    names = PRELUDES if cfg.prelude is None else (cfg.prelude,)
    name = names[case_index % len(names)]
    env = prelude_for(name)
    rng = random.Random(cfg.seed * 1_000_003 + case_index)
    gen = Generator(env, rng, cfg.allow_zero)
    pool = _goal_pool(name)
    for _ in range(20):
        goal = rng.choice(pool)
        try:
            term = gen.term((), goal, cfg.size)
        except GiveUp:
            continue
        return env, term, goal
    raise RuntimeError("generation retry budget exhausted")


# ----------------------------------------------------------- properties

def _is_refl_tree(v: Node) -> bool:
    match v:
        case Refl(_):
            return True
        case Choice(l, r):
            return _is_refl_tree(l) and _is_refl_tree(r)
    return False


def _is_function_canonical(v: Node) -> bool:
    match v:
        case Lam(_, _):
            return True
        case Choice(l, r):
            return _is_function_canonical(l) and _is_function_canonical(r)
    head, _ = spine(v)
    return isinstance(head, Con)


def _prop_progress(env, term, ty) -> Optional[str]:
    if not env.is_lambda_free():
        return "environment is not lambda-free"
    succs = step_all(env, term)
    facts = [is_value(term), term == ZERO, bool(succs)]
    if sum(facts) != 1:
        return (f"trichotomy violated: value={facts[0]} zero={facts[1]} "
                f"successors={len(succs)}")
    return None


def _prop_preservation(env, term, ty) -> Optional[str]:
    for succ in step_all(env, term):
        try:
            check_term(env, succ, ty)
        except CheckError as e:
            return (f"successor does not preserve the type:\n  "
                    f"{print_term(succ)}\n  {e.diagnostic}")
    return None


def _prop_value_soundness(env, term, ty) -> Optional[str]:
    candidates = [term]
    result = whnf(env, term, fuel=2000)
    if isinstance(result, Value):
        candidates.append(result.node)
    for v in candidates:
        if is_value(v):
            if v == ZERO:
                return "zero is classified as a value"
            succs = step_all(env, v)
            if succs:
                return (f"value steps: {print_term(v)} -> "
                        f"{print_term(succs[0])}")
    return None


def _prop_canonicity_coercion(env, term, ty) -> Optional[str]:
    if not isinstance(ty, EqTy):
        return None
    result = whnf(env, term, fuel=2000)
    if isinstance(result, Value) and not _is_refl_tree(result.node):
        return f"non-refl coercion value: {print_term(result.node)}"
    return None


def _prop_canonicity_function(env, term, ty) -> Optional[str]:
    if un_arrow(ty) is None:
        return None
    result = whnf(env, term, fuel=2000)
    if isinstance(result, Value) and not _is_function_canonical(result.node):
        return f"non-canonical function value: {print_term(result.node)}"
    return None


def _prop_uniqueness(env, term, ty) -> Optional[str]:
    if any(sub == ZERO for sub in subnodes(term)):
        return None
    first = infer_term(env, term)
    second = infer_term(env, term)
    if isinstance(first, AnyType) or isinstance(second, AnyType):
        return f"zero-free term inferred AnyType: {print_term(term)}"
    if not node_eq(first.type, second.type):
        return "inference is not deterministic"
    if not node_eq(first.type, ty):
        return (f"inferred type differs from the generated type: "
                f"{print_type(first.type)} vs {print_type(ty)}")
    return None


def _prop_types_are_values(env, term, ty) -> Optional[str]:
    kind_of(env, ty)
    if not is_value(ty):
        return f"well-kinded type is not a value: {print_type(ty)}"
    return None


PROPERTIES: dict[str, Callable] = {
    "progress": _prop_progress,
    "preservation": _prop_preservation,
    "value_soundness": _prop_value_soundness,
    "canonicity_coercion": _prop_canonicity_coercion,
    "canonicity_function": _prop_canonicity_function,
    "uniqueness_mod_zero": _prop_uniqueness,
    "types_are_values": _prop_types_are_values,
}


def _node_count(n: Node) -> int:
    return sum(1 for _ in subnodes(n))


def shrink(env: Env, term: Node, ty: Node, prop: Callable) -> Node:
    """Best-effort structural shrinking: replace the counterexample with any
    strictly smaller well-typed subterm of the same type that still fails."""
    current = term
    improved = True
    while improved:
        improved = False
        bound = _node_count(current)
        for sub in subnodes(current):
            if sub is current or _node_count(sub) >= bound:
                continue
            try:
                check_term(env, sub, ty)
            except CheckError:
                continue
            if prop(env, sub, ty) is not None:
                current = sub
                improved = True
                break
    return current


def run_property(name: str, cfg: GenConfig) -> PropResult:
    """One suite alone. Public because the benchmark's tests import it."""
    return run_properties((name,), cfg)[0]


def run_properties(names, cfg: GenConfig) -> list[PropResult]:
    """The result of each named suite, in the order of `names`, from one
    generation pass per `allow_zero` setting: case i is generated once and
    checked by every suite that has not failed yet. A suite stops at its
    first failure and shrinks it, so each result is the one the suite
    would give alone. `uniqueness_mod_zero` runs on zero-free cases."""
    names = tuple(names)
    results: dict[str, PropResult] = {}
    passes: dict[bool, list[str]] = {}
    for name in dict.fromkeys(names):
        if name == "subst_laws":
            results[name] = run_subst_laws(cfg)
            continue
        if name not in PROPERTIES:
            raise KeyError(name)
        allow_zero = cfg.allow_zero and name != "uniqueness_mod_zero"
        passes.setdefault(allow_zero, []).append(name)
    for allow_zero, suites in passes.items():
        pass_cfg = replace(cfg, allow_zero=allow_zero)
        live = list(suites)
        gen_s = 0.0
        check_s = dict.fromkeys(suites, 0.0)
        for i in range(pass_cfg.count):
            if not live:
                break
            start = perf_counter()
            env, term, ty = gen_well_typed(pass_cfg, i)
            gen_s += perf_counter() - start
            for name in list(live):
                start = perf_counter()
                prop = PROPERTIES[name]
                failure = prop(env, term, ty)
                if failure is not None:
                    results[name] = _failure(name, pass_cfg, i, env, term,
                                             ty, prop, failure)
                    live.remove(name)
                check_s[name] += perf_counter() - start
        for name in live:
            results[name] = PropResult(name, pass_cfg.count)
        for name in suites:
            results[name].gen_s, results[name].check_s = gen_s, check_s[name]
    return [results[name] for name in names]


def _failure(name: str, cfg: GenConfig, i: int, env: Env, term: Node,
             ty: Node, prop: Callable, failure: str) -> PropResult:
    small = shrink(env, term, ty, prop)
    detail = (f"seed={cfg.seed} case={i}\n"
              f"term: {print_term(term)}\n"
              f"type: {print_node(ty)}\n{failure}")
    if small is not term:
        detail += f"\nshrunk: {print_term(small)}"
    return PropResult(name, i + 1, detail)


# ------------------------------------------------------- substitution laws

def gen_type_node(rng: random.Random, size: int) -> Node:
    """An arbitrary type tree with free de Bruijn indices."""
    if size <= 0:
        return rng.choice([TVar(rng.randrange(4)), TCon("T"), TCon("Maybe")])
    half = size // 2
    builders = [
        lambda: TApp(gen_type_node(rng, half), gen_type_node(rng, half)),
        lambda: EqTy(gen_type_node(rng, half), gen_type_node(rng, half),
                     STAR),
        lambda: Forall(STAR, gen_type_node(rng, size - 1)),
        lambda: arrow(gen_type_node(rng, half), gen_type_node(rng, half)),
        lambda: gen_type_node(rng, 0),
    ]
    return rng.choice(builders)()


def gen_node(rng: random.Random, size: int) -> Node:
    """An arbitrary term tree (not necessarily well-typed) for the
    substitution laws, which are purely structural."""
    if size <= 0:
        return rng.choice([Var(rng.randrange(4)), Con("K"), ZERO,
                           Refl(gen_type_node(rng, 0)), Ref("k")])
    half = size // 2
    builders = [
        lambda: App(gen_node(rng, half), gen_node(rng, half)),
        lambda: TyApp(gen_node(rng, half), gen_type_node(rng, half)),
        lambda: Lam(gen_type_node(rng, half), gen_node(rng, half)),
        lambda: TyLam(STAR, gen_node(rng, size - 1)),
        lambda: Univ(STAR, gen_node(rng, size - 1)),
        lambda: Cast(gen_node(rng, half), gen_node(rng, half)),
        lambda: Choice(gen_node(rng, half), gen_node(rng, half)),
        lambda: Trans(gen_node(rng, half), gen_node(rng, half)),
        lambda: CApp(gen_node(rng, half), gen_node(rng, half)),
        lambda: Sym(gen_node(rng, size - 1)),
        lambda: Fst(gen_node(rng, size - 1)),
        lambda: Snd(gen_node(rng, size - 1)),
        lambda: Sim(gen_node(rng, half), gen_node(rng, half)),
        lambda: CInst(gen_node(rng, half), gen_type_node(rng, half)),
        lambda: Refl(gen_type_node(rng, size - 1)),
        lambda: If(gen_node(rng, half),
                   Pattern("K", (gen_type_node(rng, half),)),
                   gen_node(rng, half), gen_node(rng, half)),
        lambda: Guard(gen_node(rng, half), Pattern("K", ()),
                      gen_node(rng, half)),
        lambda: gen_node(rng, 0),
    ]
    return rng.choice(builders)()


def gen_subst(rng: random.Random, size: int) -> Subst:
    prefix = []
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.5:
            prefix.append(Rename(rng.randrange(5)))
        else:
            prefix.append(Replace(gen_node(rng, max(size // 3, 1))))
    return Subst(tuple(prefix), rng.randrange(0, 3))


def run_subst_laws(cfg: GenConfig) -> PropResult:
    """Identity, composition, and lift/shift commutation, checked against
    direct sequential evaluation."""
    rng = random.Random(cfg.seed)
    result = PropResult("subst_laws", cfg.count)
    for i in range(cfg.count):
        start = perf_counter()
        node = gen_node(rng, min(cfg.size, 12))
        s1 = gen_subst(rng, cfg.size)
        s2 = gen_subst(rng, cfg.size)
        generated = perf_counter()
        failure = _subst_law_failure(node, s1, s2)
        result.gen_s += generated - start
        result.check_s += perf_counter() - generated
        if failure is not None:
            result.cases, result.counterexample = i + 1, failure
            break
    return result


def _subst_law_failure(node: Node, s1: Subst, s2: Subst) -> Optional[str]:
    if apply(IDENTITY, node) != node:
        return f"identity law failed on {node!r}"
    composed = apply(compose(s1, s2), node)
    sequential = apply(s2, apply(s1, node))
    if composed != sequential:
        return (f"composition law failed:\n  s1={s1}\n  s2={s2}\n  "
                f"n={node!r}\n  composed={composed!r}\n  "
                f"sequential={sequential!r}")
    lifted = apply(lift(s1), shift(node, 1))
    shifted = shift(apply(s1, node), 1)
    if lifted != shifted:
        return f"lift/shift commutation failed:\n  s={s1}\n  n={node!r}"
    return None


ALL_PROPERTIES = tuple(PROPERTIES) + ("subst_laws",)
