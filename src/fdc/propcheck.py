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

Each `Generator` builds one case. It memoizes the canonical term of each
`(scope, goal)`, which draws nothing from the generator's `rng`, so the
terms and the draws are those an unmemoized generator makes. The scope
variables of a goal are scanned afresh: a shift of an interned type is
itself memoized (see `subst`). The memo dies with the generator, and only
the bounded `EnvTable` memos outlive a case.

A goal's productions are read off one static table per goal shape (an
arrow, a `forall`, a reflexive equality, anything else) and `allow_zero`
setting: `(weight, method)` entries in the fixed order the weighted pick
reads. A production returns None when it gives up; so does
`Generator.term` when all of a goal's productions give up, and
`Generator.canonical` for a goal with no canonical term, which its memo
stores as None.
Every draw goes through one of three methods: `_pick(weights, total)`, the
weighted pick; `_index(n)`, a uniform index; and `_roll()`, a float in
[0, 1) for a threshold. They call `random.Random._randbelow` and `random`,
which `randrange` and `choice` reduce to on Python 3.10 and 3.11, so the
draws, and with them the terms, are those that `randrange`, `choice` and
`random` make.

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
    loose_range, plug_spine, spine, spine_head, split_ctor_type, subnodes,
    type_spine, un_arrow,
)
from .synthesis import match_type
from .typecheck import (
    CheckError, check_term, infer_term, kind_of, pattern_type,
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


@lru_cache(maxsize=len(PRELUDES))
def _goal_pool(name: str) -> tuple[Node, ...]:
    """The goals the generator aims at in prelude `name`, in draw order;
    built once per prelude."""
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
    return tuple(pool)


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
            if all(isinstance(p, EqTy) and p.lhs == p.rhs
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
            if kinds[n - 1 - i] != STAR:
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
    goal)` memo lives as long as the generator (see the module docstring).
    Every draw goes through `_pick`, `_index` or `_roll`."""

    def __init__(self, env: Env, rng: random.Random,
                 allow_zero: bool = True):
        self.env = env
        self.table = env_table(env)
        self.rng = rng
        self.allow_zero = allow_zero
        self._canonical: dict[tuple[tuple, Node], Optional[Node]] = {}

    # -- draws (see the module docstring)

    def _pick(self, weights: list[int], total: int) -> int:
        """The index of an entry drawn with probability its weight over
        `total`, the sum of `weights`."""
        pick = self.rng._randbelow(total)
        i = 0
        while pick >= weights[i]:
            pick -= weights[i]
            i += 1
        return i

    def _index(self, n: int) -> int:
        """An index below `n`, drawn uniformly."""
        return self.rng._randbelow(n)

    def _roll(self) -> float:
        """A float in [0, 1)."""
        return self.rng.random()

    # -- terms: each production returns None when it gives up

    def term(self, scope: tuple, goal: Node, size: int) -> Optional[Node]:
        """A term of the goal type, or None when every production gives
        up; scope holds binder types, innermost last, each expressed at its
        own binding point."""
        if size <= 0:
            return self.canonical(scope, goal)
        # weighted choice with fallback: failed productions defer to others
        weights, methods, total = _productions(self.allow_zero, goal)
        weights, methods = list(weights), list(methods)
        while True:  # the canonical production is among those that failed
            i = self._pick(weights, total)
            total -= weights.pop(i)
            out = methods.pop(i)(self, scope, goal, size)
            if out is not None or not weights:
                return out

    def _canonical_production(self, scope, goal, size):
        return self.canonical(scope, goal)

    def _choice(self, scope, goal, size):
        left = self.term(scope, goal, size // 2)
        if left is None:
            return None
        right = self.term(scope, goal, size // 2)
        return None if right is None else Choice(left, right)

    def _zero_choice(self, scope, goal, size):
        inhabited = self.term(scope, goal, size // 2)
        if inhabited is None:
            return None
        if self._roll() < 0.5:
            return Choice(ZERO, inhabited)
        return Choice(inhabited, ZERO)

    def _cast(self, scope, goal, size):
        inner = self.term(scope, goal, size // 2)
        if inner is None:
            return None
        return Cast(inner, self.coercion_node(scope, goal, size // 2))

    def _lambda(self, scope, goal, size):
        dom, cod = un_arrow(goal)
        body = self.term(scope + (dom,), shift(cod, 1), size - 1)
        return None if body is None else Lam(dom, body)

    def _type_lambda(self, scope, goal, size):
        body = self.term(scope + (goal.kind,), goal.body, size - 1)
        return None if body is None else TyLam(goal.kind, body)

    def _coercion_ops(self, scope, goal, size):
        return self.coercion_node(scope, goal.lhs, size)

    @staticmethod
    def _in_scope(scope: tuple, goal: Node) -> list[Var]:
        """The variables of type `goal` in `scope`, innermost first."""
        reach = loose_range(goal)
        hits = []
        for i, ty in enumerate(reversed(scope)):
            if isinstance(ty, (Star, KArr)):
                continue  # type binder
            # a shift by i + 1 raises an open type's loose range by i + 1:
            # only a type that lands on the goal's range can match it
            r = loose_range(ty)
            if r == 0:
                if reach == 0 and ty == goal:
                    hits.append(Var(i))
            elif r + i + 1 == reach and shift(ty, i + 1) == goal:
                hits.append(Var(i))
        return hits

    def _scope_var(self, scope, goal, size):
        hits = self._in_scope(scope, goal)
        if not hits:
            return None
        return hits[self._index(len(hits))]

    def _spine(self, scope, goal, size):
        """A declared constructor, open function, or let applied to matching
        arguments."""
        options = self.table.spine_options(goal)
        if not options:
            return None
        head, type_args, args = options[self._index(len(options))]
        budget = max(size - 1, 0) // max(len(args), 1)
        spine_args = [(True, t) for t in type_args]
        for a in args:
            arg = self.term(scope, a, budget)
            if arg is None:
                return None
            spine_args.append((False, arg))
        return plug_spine(head, spine_args)

    def _app(self, scope, goal, size):
        dom = _APP_DOMAINS[self._index(len(_APP_DOMAINS))]
        fun = self.term(scope, arrow(dom, goal), size // 2)
        if fun is None:
            return None
        arg = self.term(scope, dom, size // 2)
        return None if arg is None else App(fun, arg)

    def _if(self, scope, goal, size):
        return self._match(scope, goal, size, False)

    def _guard(self, scope, goal, size):
        return self._match(scope, goal, size, True)

    def _match(self, scope, goal, size, guard: bool):
        """An `If` on a closed-type scrutinee, or a `Guard` on an open-type
        one, with a fully-instantiated pattern against it."""
        choices = (self.table.open_scrutinees if guard
                   else _CLOSED_SCRUTINEES)
        if not choices:
            return None
        scrut_ty, ctors = choices[self._index(len(choices))]
        pats = self.table.patterns(scrut_ty, ctors)  # after the draw
        if not pats:
            return None
        scrut = self.term(scope, scrut_ty, size // 3)
        if scrut is None:
            return None
        pat, res_kinds, lams = pats[self._index(len(pats))]
        cons = self._consequent(scope, res_kinds, lams, goal, size // 3)
        if cons is None:
            return None
        if guard:
            return Guard(scrut, pat, cons)
        alt = self.term(scope, goal, size // 3)
        return None if alt is None else If(scrut, pat, cons, alt)

    def _consequent(self, scope, res_kinds, lams, goal, size):
        body = self.term(scope + res_kinds + lams,
                         shift(goal, len(res_kinds) + len(lams)), size)
        if body is None:
            return None
        for ann in reversed(lams):
            body = Lam(ann, body)
        for k in reversed(res_kinds):
            body = TyLam(k, body)
        return body

    # -- coercions at reflexive goals

    def coercion_node(self, scope, ty: Node, size: int) -> Node:
        """A coercion term proving `ty ~ ty`; it never gives up."""
        if size <= 0:
            return Refl(ty)
        roll = self._roll()
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

    def canonical(self, scope: tuple, goal: Node) -> Optional[Node]:
        """The innermost variable of type `goal` in scope, else a small
        inhabitant read off the goal's shape or the environment, or None
        when there is none."""
        key = (scope, goal)
        out = self._canonical.get(key, _UNSEEN)
        if out is _UNSEEN:  # None is memoized too: the goal has no term
            out = self._canonical[key] = self._canonical_miss(scope, goal)
        return out

    def _canonical_miss(self, scope: tuple, goal: Node) -> Optional[Node]:
        hits = self._in_scope(scope, goal)
        if hits:
            return hits[0]
        match goal:
            case TApp(TApp(TCon("->"), dom), cod):
                body = self.canonical(scope + (dom,), shift(cod, 1))
                return None if body is None else Lam(dom, body)
            case Forall(k, body):
                body = self.canonical(scope + (k,), body)
                return None if body is None else TyLam(k, body)
            case EqTy(l, r, _) if l == r:
                return Refl(l)
        return self.table.inhabitant(goal)


_UNSEEN = object()  # a `(scope, goal)` the canonical memo has not met

# The argument types `_app` draws from.
_APP_DOMAINS = (BOOL, arrow(BOOL, BOOL))

# The productions of every goal, then those of each goal shape, in the
# order the weighted pick reads them. Each is a `Generator` method that
# takes the scope, goal and size and returns a term, or None when it gives
# up.
_COMMON = (
    (WEIGHTS["canonical"], Generator._canonical_production),
    (WEIGHTS["var"], Generator._scope_var),
    (WEIGHTS["spine"], Generator._spine),
    (WEIGHTS["choice"], Generator._choice),
    (WEIGHTS["zero_choice"], Generator._zero_choice),
    (WEIGHTS["cast"], Generator._cast),
    (WEIGHTS["if"], Generator._if),
    (WEIGHTS["guard"], Generator._guard),
    (WEIGHTS["app"], Generator._app),
)
_BY_SHAPE = {
    "arrow": ((WEIGHTS["lambda"], Generator._lambda),),
    "forall": ((WEIGHTS["lambda"], Generator._type_lambda),),
    "refl": ((WEIGHTS["coercion_ops"], Generator._coercion_ops),),
    "other": (),
}


def _table(allow_zero: bool, extra: tuple) -> tuple[tuple, tuple, int]:
    """The weights, the methods and the weights' total of the productions
    of a goal with shape-specific productions `extra`."""
    entries = [e for e in _COMMON
               if allow_zero or e[1] is not Generator._zero_choice]
    entries += extra
    return (tuple(w for w, _ in entries), tuple(m for _, m in entries),
            sum(w for w, _ in entries))


# Per `allow_zero` setting and goal shape, built once.
_PRODUCTIONS = {(allow_zero, shape): _table(allow_zero, extra)
                for allow_zero in (False, True)
                for shape, extra in _BY_SHAPE.items()}


def _productions(allow_zero: bool, goal: Node) -> tuple[tuple, tuple, int]:
    """The production table of `goal`, read off its shape."""
    match goal:
        case TApp(TApp(TCon("->"), _), _):
            shape = "arrow"
        case Forall(_, _):
            shape = "forall"
        case EqTy(l, r, _) if l == r:
            shape = "refl"
        case _:
            shape = "other"
    return _PRODUCTIONS[allow_zero, shape]


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
        goal = pool[gen._index(len(pool))]
        term = gen.term((), goal, cfg.size)
        if term is not None:
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
    if first is None or second is None:
        return f"zero-free term inferred no type: {print_term(term)}"
    if first != second:
        return "inference is not deterministic"
    if first != ty:
        return (f"inferred type differs from the generated type: "
                f"{print_type(first)} vs {print_type(ty)}")
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
    return rng.choice(_TYPE_BUILDERS)(rng, size, size // 2)


# gen_type_node's productions above size 0, each given (rng, size, half)
_TYPE_BUILDERS = (
    lambda rng, size, half: TApp(gen_type_node(rng, half),
                                 gen_type_node(rng, half)),
    lambda rng, size, half: EqTy(gen_type_node(rng, half),
                                 gen_type_node(rng, half), STAR),
    lambda rng, size, half: Forall(STAR, gen_type_node(rng, size - 1)),
    lambda rng, size, half: arrow(gen_type_node(rng, half),
                                  gen_type_node(rng, half)),
    lambda rng, size, half: gen_type_node(rng, 0),
)


def gen_node(rng: random.Random, size: int) -> Node:
    """An arbitrary term tree (not necessarily well-typed) for the
    substitution laws, which are purely structural."""
    if size <= 0:
        return rng.choice([Var(rng.randrange(4)), Con("K"), ZERO,
                           Refl(gen_type_node(rng, 0)), Ref("k")])
    return rng.choice(_NODE_BUILDERS)(rng, size, size // 2)


# gen_node's productions above size 0, each given (rng, size, half)
_NODE_BUILDERS = (
    lambda rng, size, half: App(gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: TyApp(gen_node(rng, half),
                                  gen_type_node(rng, half)),
    lambda rng, size, half: Lam(gen_type_node(rng, half),
                                gen_node(rng, half)),
    lambda rng, size, half: TyLam(STAR, gen_node(rng, size - 1)),
    lambda rng, size, half: Univ(STAR, gen_node(rng, size - 1)),
    lambda rng, size, half: Cast(gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: Choice(gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: Trans(gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: CApp(gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: Sym(gen_node(rng, size - 1)),
    lambda rng, size, half: Fst(gen_node(rng, size - 1)),
    lambda rng, size, half: Snd(gen_node(rng, size - 1)),
    lambda rng, size, half: Sim(gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: CInst(gen_node(rng, half),
                                  gen_type_node(rng, half)),
    lambda rng, size, half: Refl(gen_type_node(rng, size - 1)),
    lambda rng, size, half: If(gen_node(rng, half),
                               Pattern("K", (gen_type_node(rng, half),)),
                               gen_node(rng, half), gen_node(rng, half)),
    lambda rng, size, half: Guard(gen_node(rng, half), Pattern("K", ()),
                                  gen_node(rng, half)),
    lambda rng, size, half: gen_node(rng, 0),
)


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
