"""Instance resolution and coercion synthesis.

Coercions are found by one depth-first path search, `find_path`, over an
adjacency map from each type to its outgoing (type, coercion) edges, in the
order found. The edges come from: equality hypotheses in scope (both
directions), component projections of equalities between type applications
that the hypotheses alone derive (found by the same search), and improvement
edges obtained by applying a functional-dependency witness to a pair of
dictionaries that share determiners. Structural congruence bridges the
remaining gaps. The hypothesis edges, the decomposition edges they derive
and the in-scope dictionaries depend only on the environment and the
excluded binders, so a `Resolver` builds them once per exclusion set, as
a `Scope`, together with the improvement candidates: the pairs of a
dictionary with an instance or another dictionary whose determiners match.
Each search node adds its own two types, and the improvement edges whose
instance dictionary and determiner coercions it can find. A search that
fails is tabled (Chen & Warren, JACM 1996), and so are the improvement
edges of each search state: see `Resolver._synth` and
`Resolver._improvement_edges`.
Collections of nodes are sets and dicts keyed by the nodes, whose hash and
equality are both structural; the dicts keep the order in which nodes and
edges were found, and that order fixes the coercion chosen.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional

from .syntax import (
    Node, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref,
    Cast, Refl, Sym, Trans, CApp, Fst, Snd, Univ, Sim, Env, TyVarBind,
    TmVarBind, applied, node_eq, plug_spine, type_spine, spine_head,
    un_arrow,
)
from .subst import Subst, Replace, Rename, apply, shift, instantiate_all
from .typecheck import CheckError, _fail


class SynthError(CheckError):
    """A failed instance or coercion search."""


@dataclass
class FundepInfo:
    name: str
    dets: tuple[int, ...]
    det: int


@dataclass
class ClassInfo:
    name: str
    param_kinds: tuple[Node, ...]
    methods: dict[str, Node] = field(default_factory=dict)
    supers: list[tuple[str, Node]] = field(default_factory=list)  # proj, pred
    fundeps: list[FundepInfo] = field(default_factory=list)


@dataclass
class InstanceInfo:
    class_name: str
    ctor_name: str
    var_kinds: tuple[Node, ...]
    head: tuple[Node, ...]     # class-parameter values over the instance vars
    context: tuple[Node, ...]  # predicates over the instance vars


@dataclass
class Registry:
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    instances: dict[str, list[InstanceInfo]] = field(default_factory=dict)

    def class_of_type(self, ty: Node) -> Optional[ClassInfo]:
        head = spine_head(ty)
        if isinstance(head, TCon):
            return self.classes.get(head.name)
        return None


# --------------------------------------------------------------- matching

def match_type(pattern: Node, concrete: Node, n_vars: int,
               binding: dict[int, Node]) -> bool:
    """One-way structural match; indices < n_vars in `pattern` are match
    variables (the innermost telescope slots)."""
    match pattern:
        case TVar(i) if i < n_vars:
            if i in binding:
                return node_eq(binding[i], concrete)
            binding[i] = concrete
            return True
    match pattern, concrete:
        case (TVar(i), TVar(j)):
            return i == j
        case (TCon(a), TCon(b)):
            return a == b
        case (TApp(f1, a1), TApp(f2, a2)):
            return (match_type(f1, f2, n_vars, binding)
                    and match_type(a1, a2, n_vars, binding))
        case (EqTy(l1, r1, k1), EqTy(l2, r2, k2)):
            return (node_eq(k1, k2)
                    and match_type(l1, l2, n_vars, binding)
                    and match_type(r1, r2, n_vars, binding))
        case (Forall(k1, b1), Forall(k2, b2)):
            # match variables cannot occur under the extra binder soundly;
            # require exact equality there
            return node_eq(k1, k2) and node_eq(b1, b2)
    return False


def subst_match_vars(ty: Node, n_vars: int, binding: dict[int, Node]) -> Node:
    """Replace fully-bound match variables; binding values are expressed
    outside the match telescope, so indices beyond it drop by n_vars."""
    prefix = []
    for i in range(n_vars):
        if i in binding:
            prefix.append(Replace(binding[i]))
        else:
            prefix.append(Rename(i))  # left open: caller must reject
    return apply(Subst(tuple(prefix), -n_vars), ty)


# ---------------------------------------------------------- consistency

def _rigid_clash(a: Node, b: Node) -> bool:
    ha, _ = type_spine(a)
    hb, _ = type_spine(b)
    match ha, hb:
        case (TCon(x), TCon(y)):
            return x != y
        case (TCon(_), Forall(_, _)) | (Forall(_, _), TCon(_)):
            return True
        case (TCon(_), EqTy(_, _, _)) | (EqTy(_, _, _), TCon(_)):
            return True
    return False


def hyps_inconsistent(pairs: list[tuple[Node, Node]]) -> bool:
    """Close equality hypotheses under symmetry, transitivity, and
    decomposition with a union-find; report whether two rigidly distinct
    types share a class. Each class keeps one type application, and each
    application that joins the class is decomposed against it."""
    parent: dict[Node, Node] = {}
    app: dict[Node, TApp] = {}  # root -> the application its class keeps

    def find(t: Node) -> Node:
        if t not in parent:
            parent[t] = t
            if isinstance(t, TApp):
                app[t] = t
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        kept = app.pop(ra, None)
        if kept is None:
            continue
        if rb in app:
            work += [(kept.fun, app[rb].fun), (kept.arg, app[rb].arg)]
        else:
            app[rb] = kept
    # a clash has a constructor head on one side, so checking each class
    # against one of its constructor-headed members finds any clash in it
    rigid: dict[Node, Node] = {}
    for t in parent:
        if isinstance(spine_head(t), TCon):
            rigid.setdefault(find(t), t)
    return any(_rigid_clash(rigid[find(t)], t) for t in parent
               if find(t) in rigid)


# ------------------------------------------------------------ path search

# Each node's outgoing edges, in the order they were found: (next, coercion).
Graph = dict[Node, list[tuple[Node, Node]]]


def _add_edge(graph: Graph, frm: Node, to: Node, co: Node) -> None:
    graph.setdefault(frm, []).append((to, co))


class Candidate(NamedTuple):
    """A fundep improvement a scope can make: the dictionary `d1` of class
    `info` at `args1`, paired with `d2` at `args2`. When `inst` is set, `d1`
    is None: a dictionary of that instance at `args1` is resolved at each
    search node."""
    info: ClassInfo
    fd: FundepInfo
    inst: Optional[InstanceInfo]
    d1: Optional[Node]
    args1: list[Node]
    d2: Node
    args2: list[Node]


@dataclass
class Scope:
    """What every coercion search of one resolver under one exclusion set
    shares, built once: the graph of the equality hypotheses' edges (each
    hypothesis both ways, then the decomposition edges they derive), their
    sides in order, and the improvement candidates between the in-scope
    dictionaries and their superclass projections, in the order their edges
    are tried. `edges` tables the improvement edges of each search state,
    `(depth, active)`: see `Resolver._improvement_edges`."""
    graph: Graph
    nodes: dict[Node, None]
    candidates: list[Candidate]
    edges: dict[tuple[int, frozenset], list[tuple[Node, Node, Node]]] \
        = field(default_factory=dict)


def find_path(frm: Node, to: Node, graph: Graph,
              bridges: Callable[[Node, set[Node]],
                                Iterable[tuple[Node, Node]]]
              = lambda cur, visited: (),
              ) -> Optional[Node]:
    """Depth-first search for a coercion `frm ~ to`: the `Trans` chain of
    the steps on the first path found. From each node it tries the graph's
    edges in order, then the `(next, coercion)` steps that
    `bridges(node, visited)` yields; these are drawn lazily, so a bridge is
    only computed once every step before it has failed."""
    visited: set[Node] = set()

    def walk(cur: Node) -> Optional[list[Node]]:
        if cur == to:
            return []
        visited.add(cur)
        for nxt, co in chain(graph.get(cur, ()), bridges(cur, visited)):
            if nxt not in visited:
                rest = walk(nxt)
                if rest is not None:
                    return [co] + rest
        return None

    parts = walk(frm)
    if parts is None:
        return None
    if not parts:
        return Refl(frm)
    eta = parts[-1]
    for p in reversed(parts[:-1]):
        eta = Trans(p, eta)
    return eta


# ------------------------------------------------------------- resolver

@dataclass
class Resolver:
    env: Env
    registry: Registry
    overlap: str = "reject"          # "reject" | "first"
    synth_depth: int = 64
    resolve_depth: int = 32
    # The (from, to) goals already open when `synth` starts. A class
    # attribute, not a field: only the copy `_instance_det_dict` makes for
    # a nested search sets it, to its caller's open goals.
    _active = frozenset()

    def __post_init__(self) -> None:
        self._entries = [(i, shift(b.type, i + 1))
                         for i, b in enumerate(reversed(self.env.binders))
                         if isinstance(b, TmVarBind)]
        # One `Scope` per exclusion set, built on first use, and the failed
        # searches (see `_synth`). The copies `_instance_det_dict` makes
        # share both (same environment); a resolver for a wider environment
        # starts its own.
        self._scopes: dict[frozenset[int], Scope] = {}
        self._fails: dict[tuple[Node, Node, frozenset[int]],
                          list[tuple[int, frozenset]]] = {}
        # The number of `ambiguous-instance` failures raised so far, in a
        # list so that every copy and inner resolver counts into one.
        self._ambiguities = [0]

    # -- scope inspection

    def scope_entries(self) -> list[tuple[int, Node]]:
        """(index, type) for every term binder in scope, innermost first;
        built once, when the resolver is made."""
        return self._entries

    def hypotheses(self, exclude: frozenset[int]) -> list[tuple[Node, Node, Node]]:
        return [(ty.lhs, ty.rhs, Var(i)) for i, ty in self.scope_entries()
                if i not in exclude and isinstance(ty, EqTy)]

    def inconsistent(self) -> bool:
        """Do the equalities in scope equate rigidly distinct types?"""
        return hyps_inconsistent([(l, r) for l, r, _
                                  in self.hypotheses(frozenset())])

    def _scope(self, exclude: frozenset[int]) -> Scope:
        scope = self._scopes.get(exclude)
        if scope is None:
            scope = self._scopes[exclude] = self._build_scope(exclude)
        return scope

    def _build_scope(self, exclude: frozenset[int]) -> Scope:
        hyps = self.hypotheses(exclude)
        graph: Graph = {}
        for l, r, term in hyps:
            _add_edge(graph, l, r, term)
            _add_edge(graph, r, l, Sym(term))
        nodes = dict.fromkeys(n for l, r, _ in hyps for n in (l, r))
        for a, b, term in self._decomposition_edges(nodes, graph):
            _add_edge(graph, a, b, term)
        return Scope(graph, nodes,
                     self._candidates(self._collect_dicts(exclude)))

    def _collect_dicts(self, exclude: frozenset[int]
                       ) -> tuple[tuple[Node, Node], ...]:
        out: list[tuple[Node, Node]] = []
        seen_types: set[Node] = set()

        def push(term: Node, ty: Node) -> None:
            if ty in seen_types:
                return
            seen_types.add(ty)
            out.append((term, ty))
            info = self.registry.class_of_type(ty)
            if info is None:
                return
            _, args = type_spine(ty)
            for proj, _pred in info.supers:
                sig = self.env.method_sig(proj)
                if sig is None:
                    continue
                super_ty = sig.type
                for _ in args:
                    assert isinstance(super_ty, Forall)
                    super_ty = super_ty.body
                super_ty = instantiate_all(super_ty, args)
                # the instantiated projection type is `C args -> S ...`
                arrow_parts = un_arrow(super_ty)
                if arrow_parts is None:
                    continue
                push(apply_projection(proj, args, term), arrow_parts[1])

        for i, ty in self.scope_entries():
            if i in exclude:
                continue
            if self.registry.class_of_type(ty) is not None:
                push(Var(i), ty)
        return tuple(out)

    # -- instance resolution

    def resolve(self, goal: Node, depth: Optional[int] = None,
                exclude: frozenset[int] = frozenset()) -> Node:
        if depth is None:
            depth = self.resolve_depth
        if isinstance(goal, EqTy):
            eta = self.synth(goal.lhs, goal.rhs, exclude=exclude)
            return eta
        if depth <= 0:
            _fail("no-instance", "instance search depth exhausted",
                  found=goal, error=SynthError)
        # 1. a local dictionary of exactly the goal type
        for i, ty in self.scope_entries():
            if i not in exclude and ty == goal:
                return Var(i)
        head = spine_head(goal)
        _, goal_args = type_spine(goal)
        candidates: list[tuple[int, Node]] = []  # (specificity, term)
        if isinstance(head, TCon):
            for inst in self.registry.instances.get(head.name, []):
                term = self._try_instance(inst, goal_args, depth, exclude)
                if term is not None:
                    spec = sum(_size(h) for h in inst.head)
                    candidates.append((spec, term))
        if candidates:
            distinct = {t for _, t in candidates}
            if len(distinct) > 1 and self.overlap == "reject":
                self._ambiguities[0] += 1
                _fail("ambiguous-instance",
                      f"{len(distinct)} instances satisfy the goal",
                      found=goal, error=SynthError)
            best = max(range(len(candidates)),
                       key=lambda i: (candidates[i][0], -i))
            return candidates[best][1]
        # 3. superclass projections of resolvable dictionaries
        term = self._try_superclasses(goal, depth, exclude)
        if term is not None:
            return term
        _fail("no-instance", "no instance or hypothesis matches the goal",
              found=goal, error=SynthError)

    def _try_instance(self, inst: InstanceInfo, goal_args: list[Node],
                      depth: int, exclude: frozenset[int]) -> Optional[Node]:
        n_vars = len(inst.var_kinds)
        if len(goal_args) != len(inst.head):
            return None
        binding: dict[int, Node] = {}
        deferred: list[int] = []
        # premises are H_i ~ goal_i; structural matches bind instance vars,
        # the rest fall through to coercion synthesis. One pass suffices: a
        # match only fails more with more bindings, so a retry never binds.
        for idx in range(len(inst.head)):
            trial = dict(binding)
            if match_type(inst.head[idx], goal_args[idx], n_vars, trial):
                binding = trial
            else:
                deferred.append(idx)
        if len(binding) < n_vars:
            return None  # underdetermined instance variables
        inst_args = [binding[i] for i in range(n_vars)]
        premises: list[Node] = []
        for idx in range(len(inst.head)):
            concrete = subst_match_vars(inst.head[idx], n_vars, binding)
            if idx not in deferred and node_eq(concrete, goal_args[idx]):
                premises.append(Refl(goal_args[idx]))
                continue
            eta = self._synth(concrete, goal_args[idx], self.synth_depth,
                              exclude, self._active)
            if eta is None:
                return None
            premises.append(eta)
        dicts: list[Node] = []
        for pred in inst.context:
            concrete = subst_match_vars(pred, n_vars, binding)
            try:
                dicts.append(self.resolve(concrete, depth - 1, exclude))
            except SynthError:
                return None
        # instance variables are quantified outermost-first after the params
        return plug_spine(Con(inst.ctor_name),
                          [(True, a) for a in goal_args]
                          + [(True, a) for a in reversed(inst_args)]
                          + [(False, p) for p in premises + dicts])

    def _try_superclasses(self, goal: Node, depth: int,
                          exclude: frozenset[int]) -> Optional[Node]:
        for cname, info in self.registry.classes.items():
            for proj, pred in info.supers:
                n = len(info.param_kinds)
                binding: dict[int, Node] = {}
                if not match_type(pred, goal, n, binding):
                    continue
                if len(binding) < n:
                    continue
                params = [binding[n - 1 - pos] for pos in range(n)]
                # pred is expressed over the class params, innermost = last
                try:
                    dict_term = self.resolve(applied(cname, params),
                                             depth - 1, exclude)
                except SynthError:
                    continue
                return apply_projection(proj, params, dict_term)
        return None

    # -- coercion synthesis

    def synth(self, frm: Node, to: Node, depth: Optional[int] = None,
              exclude: frozenset[int] = frozenset()) -> Node:
        if depth is None:
            depth = self.synth_depth
        eta = self._synth(frm, to, depth, exclude, self._active)
        if eta is None:
            _fail("no-coercion", "no coercion path between the types",
                  expected=to, found=frm, error=SynthError)
        return eta

    def _synth(self, frm: Node, to: Node, depth: int,
               exclude: frozenset[int],
               active: frozenset) -> Optional[Node]:
        if frm == to:
            return Refl(frm)
        if depth <= 0:
            return None
        key = (frm, to)
        if key in active:
            return None
        # A search with less depth and more open goals has a subset of the
        # edges, and `find_path` is complete over them, so it fails where a
        # tabled failure with at least its depth and at most its open goals
        # failed. Not so when an `ambiguous-instance` failure was swallowed:
        # a nested goal that more depth makes ambiguous removes an edge.
        # Such a failure is not tabled.
        tabled = (frm, to, exclude)
        if any(depth <= d and a <= active
               for d, a in self._fails.get(tabled, ())):
            return None
        ambiguities = self._ambiguities[0]
        query_active, active = active, active | {key}
        scope = self._scope(exclude)
        # `frm` and `to` add no decomposition edge: a node outside the
        # hypothesis graph has no edge there, so no path from or to it
        nodes = {**scope.nodes, frm: None, to: None}
        graph = scope.graph
        improvements = self._improvement_edges(scope, depth, exclude, active)
        if improvements:
            graph = dict(graph)  # the scope's lists stay as they are
            for a, b, term in improvements:
                graph[a] = [*graph.get(a, ()), (b, term)]

        def bridges(cur: Node, visited: set[Node]):
            # structural congruence, direct and via known nodes
            for target in [to] + [n for n in nodes
                                  if n not in visited and n != to]:
                bridge = self._congruence(cur, target, depth - 1, exclude,
                                          active)
                if bridge is not None:
                    yield target, bridge

        eta = find_path(frm, to, graph, bridges)
        if eta is None and self._ambiguities[0] == ambiguities:
            self._fails.setdefault(tabled, []).append((depth, query_active))
        return eta

    def _congruence(self, a: Node, b: Node, depth: int, exclude,
                    active) -> Optional[Node]:
        match a, b:
            case (TApp(f1, a1), TApp(f2, a2)):
                ef = self._synth(f1, f2, depth, exclude, active)
                if ef is None:
                    return None
                ea = self._synth(a1, a2, depth, exclude, active)
                if ea is None:
                    return None
                return CApp(ef, ea)
            case (Forall(k1, b1), Forall(k2, b2)) if node_eq(k1, k2):
                inner = replace(self, env=self.env.push(TyVarBind(k1)))
                inner._ambiguities = self._ambiguities
                shifted_exclude = frozenset(i + 1 for i in exclude)
                eb = inner._synth(b1, b2, depth, shifted_exclude, active)
                if eb is None:
                    return None
                return Univ(k1, eb)
            case (EqTy(l1, r1, k1), EqTy(l2, r2, k2)) if node_eq(k1, k2):
                el = self._synth(l1, l2, depth, exclude, active)
                if el is None:
                    return None
                er = self._synth(r1, r2, depth, exclude, active)
                if er is None:
                    return None
                return Sim(el, er)
        return None

    def _decomposition_edges(self, nodes, hyp_graph: Graph):
        """Components of derivable equalities between type applications."""
        out = []
        apps = [n for n in nodes if isinstance(n, TApp)]
        for a in apps:
            for b in apps:
                if a == b:
                    continue
                path = find_path(a, b, hyp_graph)
                if path is None:
                    continue
                out.append((a.fun, b.fun, Fst(path)))
                out.append((a.arg, b.arg, Snd(path)))
        return out

    def _candidates(self, dicts: tuple[tuple[Node, Node], ...]
                    ) -> list[Candidate]:
        """The improvement candidates of a scope's dictionaries: for each
        dictionary of a class with fundeps, and each fundep, the instances
        whose head matches its determiners, then the other dictionaries of
        its class. A pair whose determined parameters already agree teaches
        nothing and is left out."""
        out = []
        for term, ty in dicts:
            info = self.registry.class_of_type(ty)
            if info is None or not info.fundeps:
                continue
            _, args = type_spine(ty)
            for fd in info.fundeps:
                # pair with instances whose determiners match
                for inst in self.registry.instances.get(info.name, []):
                    inst_args = _det_args(inst, fd, args)
                    if inst_args is not None:
                        out.append(Candidate(info, fd, inst, None, inst_args,
                                             term, args))
                # pair with other in-scope dictionaries
                for term2, ty2 in dicts:
                    if term2 is term:
                        continue
                    info2 = self.registry.class_of_type(ty2)
                    if info2 is None or info2.name != info.name:
                        continue
                    _, args2 = type_spine(ty2)
                    out.append(Candidate(info, fd, None, term, args, term2,
                                         args2))
        return [c for c in out
                if not node_eq(c.args1[c.fd.det], c.args2[c.fd.det])]

    def _improvement_edges(self, scope: Scope, depth, exclude, active):
        """fdFwd-style edges between determined parameters of the scope's
        candidate pairs whose determiners can be coerced to agree.

        In one scope they are a function of the search state, the depth
        and the open goals, so they are tabled by it (Chen & Warren, JACM
        1996), except a list whose computation swallowed an
        `ambiguous-instance` failure: see `_synth`."""
        key = (depth, active)
        edges = scope.edges.get(key)
        if edges is not None:
            return edges
        ambiguities = self._ambiguities[0]
        edges = []
        for info, fd, inst, d1, args1, d2, args2 in scope.candidates:
            if inst is not None:
                d1 = self._instance_det_dict(inst, args1, depth, exclude,
                                             active)
                if d1 is None:
                    continue
            edge = self._fd_edge(info, fd, d1, args1, d2, args2, depth,
                                 exclude, active)
            if edge is not None:
                edges.append(edge)
        if self._ambiguities[0] == ambiguities:
            scope.edges[key] = edges
        return edges

    def _instance_det_dict(self, inst: InstanceInfo, args: list[Node],
                           depth: int, exclude, active) -> Optional[Node]:
        """A dictionary for `inst` at `args`. Its search goes on from this
        one: `depth - 1` deep at most, with `active` open."""
        inner = copy(self)
        inner.synth_depth, inner._active = depth - 1, active
        try:
            return inner.resolve(applied(inst.class_name, args), depth - 1,
                                 exclude)
        except SynthError:
            return None

    def _fd_edge(self, info: ClassInfo, fd: FundepInfo,
                 d1: Node, args1: list[Node], d2: Node, args2: list[Node],
                 depth: int, exclude, active) -> Optional[tuple[Node, Node, Node]]:
        det_coercions: dict[int, Node] = {}
        for i in fd.dets:
            if node_eq(args1[i], args2[i]):
                continue
            eta = self._synth(args1[i], args2[i], depth - 1, exclude, active)
            if eta is None:
                return None
            det_coercions[i] = eta
        first = d1
        first_args = list(args1)
        if det_coercions:
            co: Node = Refl(TCon(info.name))
            for i in range(len(args1)):
                if i in det_coercions:
                    co = CApp(co, det_coercions[i])
                    first_args[i] = args2[i]
                else:
                    co = CApp(co, Refl(args1[i]))
            first = Cast(first, co)
        nondets = [args2[i] for i in range(len(args2)) if i not in fd.dets]
        witness = plug_spine(Ref(fd.name),
                             [(True, a) for a in first_args + nondets]
                             + [(False, first), (False, d2)])
        return (args1[fd.det], args2[fd.det], witness)


def _det_args(inst: InstanceInfo, fd: FundepInfo,
              args: list[Node]) -> Optional[list[Node]]:
    """The head of `inst` with its determiner positions matched against
    `args`, when they match and determine every instance variable."""
    n_vars = len(inst.var_kinds)
    binding: dict[int, Node] = {}
    for i in fd.dets:
        if not match_type(inst.head[i], args[i], n_vars, binding):
            return None
    if len(binding) < n_vars:
        return None
    return [subst_match_vars(h, n_vars, binding) for h in inst.head]


def apply_projection(name: str, type_args: list[Node], term_arg: Node) -> Node:
    return plug_spine(Ref(name), [(True, t) for t in type_args]
                      + [(False, term_arg)])


def _size(t: Node) -> int:
    match t:
        case TVar(_):
            return 0
        case TCon(_):
            return 1
        case TApp(f, a):
            return _size(f) + _size(a)
        case Forall(_, b):
            return 1 + _size(b)
        case EqTy(l, r, _):
            return 1 + _size(l) + _size(r)
    return 1
