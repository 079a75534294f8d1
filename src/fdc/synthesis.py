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
a `Scope`; each search node adds its own two types and improvement edges.
Collections of nodes are sets and dicts keyed by the nodes, whose hash and
equality are both structural; the dicts keep the order in which nodes and
edges were found, and that order fixes the coercion chosen.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Optional

from .syntax import (
    Node, TVar, TCon, TApp, EqTy, Forall, Var, Con, Ref,
    Cast, Refl, Sym, Trans, CApp, Fst, Snd, Univ, Sim, Env, TyVarBind,
    TmVarBind, applied, node_eq, plug_spine, type_spine, spine_head,
    un_arrow,
)
from .subst import Subst, Replace, Rename, apply, shift, instantiate
from .typecheck import Diagnostic


class SynthError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


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
    ctor_type: Node


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


def hyps_inconsistent(pairs: list[tuple[Node, Node]], limit: int = 200) -> bool:
    """Close equality hypotheses under symmetry, transitivity, and
    decomposition; report whether two rigidly distinct types get equated."""
    known: dict[tuple[Node, Node], None] = {}  # ordered: `limit` cuts it

    def add(a: Node, b: Node) -> bool:
        if a == b or (a, b) in known:
            return False
        known[a, b] = None
        return True

    for a, b in pairs:
        add(a, b)
        add(b, a)
    changed = True
    while changed and len(known) < limit:
        changed = False
        for (a, b) in list(known):
            if isinstance(a, TApp) and isinstance(b, TApp):
                if add(a.fun, b.fun) or add(a.arg, b.arg):
                    changed = True
                if add(b.fun, a.fun) or add(b.arg, a.arg):
                    changed = True
            for (c, d) in list(known):
                if b == c and add(a, d):
                    changed = True
    return any(_rigid_clash(a, b) for a, b in known)


# ------------------------------------------------------------ path search

# Each node's outgoing edges, in the order they were found: (next, coercion).
Graph = dict[Node, list[tuple[Node, Node]]]


def _add_edge(graph: Graph, frm: Node, to: Node, co: Node) -> None:
    graph.setdefault(frm, []).append((to, co))


@dataclass
class Scope:
    """What every coercion search of one resolver under one exclusion set
    shares, built once: the equality hypotheses as (lhs, rhs, proof), the
    graph of their edges (each hypothesis both ways, then the decomposition
    edges they derive), their sides in order, and the in-scope dictionaries
    with their superclass projections."""
    hyps: list[tuple[Node, Node, Node]]
    graph: Graph
    nodes: dict[Node, None]
    dicts: tuple[tuple[Node, Node], ...]


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
        # One `Scope` per exclusion set, built on first use. The copies
        # `_instance_det_dict` makes share this dict (same environment);
        # a resolver for a wider environment starts its own.
        self._scopes: dict[frozenset[int], Scope] = {}

    # -- scope inspection

    def scope_entries(self) -> list[tuple[int, Node]]:
        """(index, type) for every term binder in scope, innermost first;
        built once, when the resolver is made."""
        return self._entries

    def hypotheses(self, exclude: frozenset[int]) -> list[tuple[Node, Node, Node]]:
        return [(ty.lhs, ty.rhs, Var(i)) for i, ty in self.scope_entries()
                if i not in exclude and isinstance(ty, EqTy)]

    def scope_dicts(self, exclude: frozenset[int]
                    ) -> tuple[tuple[Node, Node], ...]:
        """(term, type) pairs for class-typed binders, with superclass
        projections chased transitively; built once per exclusion set."""
        return self._scope(exclude).dicts

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
        return Scope(hyps, graph, nodes, self._collect_dicts(exclude))

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
                for a in args:
                    assert isinstance(super_ty, Forall)
                    super_ty = instantiate(super_ty.body, a)
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
            raise SynthError(Diagnostic(
                "no-instance", "instance search depth exhausted",
                found=_show(goal)))
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
                raise SynthError(Diagnostic(
                    "ambiguous-instance",
                    f"{len(distinct)} instances satisfy the goal",
                    found=_show(goal)))
            best = max(range(len(candidates)),
                       key=lambda i: (candidates[i][0], -i))
            return candidates[best][1]
        # 3. superclass projections of resolvable dictionaries
        term = self._try_superclasses(goal, depth, exclude)
        if term is not None:
            return term
        raise SynthError(Diagnostic(
            "no-instance", "no instance or hypothesis matches the goal",
            found=_show(goal)))

    def _try_instance(self, inst: InstanceInfo, goal_args: list[Node],
                      depth: int, exclude: frozenset[int]) -> Optional[Node]:
        n_vars = len(inst.var_kinds)
        if len(goal_args) != len(inst.head):
            return None
        binding: dict[int, Node] = {}
        deferred: list[int] = []
        # premises are H_i ~ goal_i; structural matches bind instance vars,
        # the rest fall through to coercion synthesis
        pending = list(range(len(inst.head)))
        progress = True
        while pending and progress:
            progress = False
            for idx in list(pending):
                trial = dict(binding)
                if match_type(inst.head[idx], goal_args[idx], n_vars, trial):
                    binding.update(trial)
                    pending.remove(idx)
                    progress = True
        deferred = pending
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
            raise SynthError(Diagnostic(
                "no-coercion", "no coercion path between the types",
                expected=_show(to), found=_show(frm)))
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
        active = active | {key}
        scope = self._scope(exclude)
        # `frm` and `to` add no decomposition edge: a node outside the
        # hypothesis graph has no edge there, so no path from or to it
        nodes = {**scope.nodes, frm: None, to: None}
        graph = scope.graph
        improvements = self._improvement_edges(scope.hyps, depth, exclude,
                                               active)
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

        return find_path(frm, to, graph, bridges)

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

    def _improvement_edges(self, hyps, depth, exclude, active):
        """fdFwd-style edges between determined parameters of dictionary
        pairs that share (or can be coerced to share) determiners."""
        edges = []
        dicts = self.scope_dicts(exclude)
        for term, ty in list(dicts):
            info = self.registry.class_of_type(ty)
            if info is None or not info.fundeps:
                continue
            _, args = type_spine(ty)
            for fd in info.fundeps:
                # pair with resolvable instances whose determiners match
                for inst in self.registry.instances.get(info.name, []):
                    got = self._instance_det_dict(inst, fd, args, depth,
                                                  exclude, active)
                    if got is None:
                        continue
                    inst_dict, inst_args = got
                    edge = self._fd_edge(info, fd, inst_dict, inst_args,
                                         term, args, depth, exclude, active)
                    if edge is not None:
                        edges.append(edge)
                # pair with other in-scope dictionaries
                for term2, ty2 in dicts:
                    if term2 is term:
                        continue
                    info2 = self.registry.class_of_type(ty2)
                    if info2 is None or info2.name != info.name:
                        continue
                    _, args2 = type_spine(ty2)
                    edge = self._fd_edge(info, fd, term, args, term2, args2,
                                         depth, exclude, active)
                    if edge is not None:
                        edges.append(edge)
        return edges

    def _instance_det_dict(self, inst: InstanceInfo, fd: FundepInfo,
                           args: list[Node], depth: int, exclude, active):
        """A dictionary for `inst` whose determiner positions equal the given
        argument list's, when the instance head allows it. Its search goes
        on from this one: `depth - 1` deep at most, with `active` open."""
        n_vars = len(inst.var_kinds)
        binding: dict[int, Node] = {}
        for i in fd.dets:
            if not match_type(inst.head[i], args[i], n_vars, binding):
                return None
        # every instance variable must be determined by the determiners
        for i in range(n_vars):
            if i not in binding:
                return None
        full_args = [subst_match_vars(inst.head[i], n_vars, binding)
                     for i in range(len(inst.head))]
        inner = copy(self)
        inner.synth_depth, inner._active = depth - 1, active
        try:
            term = inner.resolve(applied(inst.class_name, full_args),
                                 depth - 1, exclude)
        except SynthError:
            return None
        return term, full_args

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
        lhs_det = args1[fd.det]
        rhs_det = args2[fd.det]
        if node_eq(lhs_det, rhs_det):
            return None  # nothing to learn
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
        return (lhs_det, rhs_det, witness)


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


def _show(t: Node) -> str:
    from .printer import print_node
    return print_node(t)
