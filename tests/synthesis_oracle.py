"""Reference coercion search, kept as the differential oracle for the path
search in `fdc.synthesis`.

`OracleResolver` keeps the original list-based search: every call rebuilds
the scope from the environment, coercion paths come from a depth-first walk
over a flat edge list with its own congruence bridging (`_dfs`), the
decomposition edges from a second walk over the hypothesis edges
(`_hyp_path`), and every set of nodes is a list scanned with `node_eq`.
`hyps_inconsistent` is the original quadratic closure over a list, and
`OracleResolver.inconsistent` asks it. Its `_synth` tables no failed
search, and its improvement edges match every dictionary against every
instance head and dictionary at each search node. The resolver shares
instance matching, congruence and superclass projection with the code under
test; inner scopes (`Univ` congruence) are built as `OracleResolver`s too,
so a whole search runs on the old code.
"""

from __future__ import annotations

from copy import copy
from typing import Optional

from fdc.synthesis import (
    ClassInfo, FundepInfo, InstanceInfo, Resolver, SynthError, _rigid_clash,
    _size, apply_projection, match_type, subst_match_vars,
)
from fdc.syntax import (
    Node, TCon, TApp, EqTy, Forall, Var, Con, Ref, App, TyApp, Cast, Refl,
    Sym, Trans, CApp, Fst, Snd, TmVarBind, applied, node_eq, plug_spine,
    type_spine, spine_head, un_arrow,
)
from fdc.subst import shift, instantiate
from fdc.typecheck import Diagnostic, _show


def hyps_inconsistent(pairs: list[tuple[Node, Node]], limit: int = 200) -> bool:
    """Close equality hypotheses under symmetry, transitivity, and
    decomposition; report whether two rigidly distinct types get equated."""
    known: list[tuple[Node, Node]] = []

    def add(a: Node, b: Node) -> bool:
        if node_eq(a, b):
            return False
        for (x, y) in known:
            if node_eq(x, a) and node_eq(y, b):
                return False
        known.append((a, b))
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
                if node_eq(b, c) and add(a, d):
                    changed = True
    return any(_rigid_clash(a, b) for a, b in known)


class OracleResolver(Resolver):

    def inconsistent(self) -> bool:
        return hyps_inconsistent([(l, r) for l, r, _
                                  in self.hypotheses(frozenset())])

    def scope_entries(self) -> list[tuple[int, Node]]:
        """(index, type) for every term binder in scope, innermost first."""
        out = []
        depth = len(self.env.binders)
        for i in range(depth):
            entry = self.env.binder(i)
            if isinstance(entry, TmVarBind):
                out.append((i, shift(entry.type, i + 1)))
        return out

    def scope_dicts(self, exclude: frozenset[int]) -> list[tuple[Node, Node]]:
        """(term, type) pairs for class-typed binders, with superclass
        projections chased transitively."""
        out: list[tuple[Node, Node]] = []
        seen_types: list[Node] = []

        def push(term: Node, ty: Node) -> None:
            for t in seen_types:
                if node_eq(t, ty):
                    return
            seen_types.append(ty)
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
        return out

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
            if i in exclude:
                continue
            if node_eq(ty, goal):
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
            distinct = []
            for _, t in candidates:
                if not any(node_eq(t, u) for u in distinct):
                    distinct.append(t)
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

    # As the resolver had it when this search was kept: each premise goes
    # through `synth`, and its `SynthError` rejects the instance.
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
            try:
                premises.append(self.synth(concrete, goal_args[idx],
                                           exclude=exclude))
            except SynthError:
                return None
        dicts: list[Node] = []
        for pred in inst.context:
            concrete = subst_match_vars(pred, n_vars, binding)
            try:
                dicts.append(self.resolve(concrete, depth - 1, exclude))
            except SynthError:
                return None
        term: Node = Con(inst.ctor_name)
        for a in goal_args:
            term = TyApp(term, a)
        # instance variables are quantified outermost-first after the params
        for i in reversed(range(n_vars)):
            term = TyApp(term, inst_args[i])
        for p in premises:
            term = App(term, p)
        for d in dicts:
            term = App(term, d)
        return term

    def _synth(self, frm: Node, to: Node, depth: int,
               exclude: frozenset[int],
               active: frozenset) -> Optional[Node]:
        if node_eq(frm, to):
            return Refl(frm)
        if depth <= 0:
            return None
        key = (frm, to)
        if key in active:
            return None
        active = active | {key}
        hyps = self.hypotheses(exclude)
        edges: list[tuple[Node, Node, Node]] = []
        for l, r, term in hyps:
            edges.append((l, r, term))
            edges.append((r, l, Sym(term)))
        nodeset: list[Node] = []
        for l, r, _ in hyps:
            _add_node(nodeset, l)
            _add_node(nodeset, r)
        _add_node(nodeset, frm)
        _add_node(nodeset, to)
        edges.extend(self._decomposition_edges(nodeset, edges))
        edges.extend(self._improvement_edges(hyps, depth, exclude, active))
        path = self._dfs(frm, to, edges, nodeset, depth, exclude, active)
        return path

    def _dfs(self, frm: Node, to: Node, edges, nodeset, depth,
             exclude, active) -> Optional[Node]:
        visited: list[Node] = []

        def seen(t: Node) -> bool:
            return any(node_eq(t, v) for v in visited)

        def walk(cur: Node) -> Optional[list[Node]]:
            if node_eq(cur, to):
                return []
            visited.append(cur)
            for (a, b, term) in edges:
                if node_eq(cur, a) and not seen(b):
                    rest = walk(b)
                    if rest is not None:
                        return [term] + rest
            # structural congruence, direct and via known nodes
            targets = [to] + [n for n in nodeset if not seen(n)
                              and not node_eq(n, to)]
            for target in targets:
                if node_eq(cur, target):
                    continue
                bridge = self._congruence(cur, target, depth - 1,
                                          exclude, active)
                if bridge is None:
                    continue
                if node_eq(target, to):
                    return [bridge]
                if not seen(target):
                    rest = walk(target)
                    if rest is not None:
                        return [bridge] + rest
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

    def _decomposition_edges(self, nodeset, hyp_edges):
        """Components of derivable equalities between type applications."""
        out = []
        apps = [n for n in nodeset if isinstance(n, TApp)]
        for i, a in enumerate(apps):
            for b in apps:
                if a is b or node_eq(a, b):
                    continue
                path = _hyp_path(a, b, hyp_edges)
                if path is None:
                    continue
                out.append((a.fun, b.fun, Fst(path)))
                out.append((a.arg, b.arg, Snd(path)))
        return out

    # As the resolver had it before failed searches were tabled and the
    # improvement candidates built once per scope: every search node matches
    # each dictionary against each instance head and dictionary again.
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


def _hyp_path(frm: Node, to: Node, edges) -> Optional[Node]:
    """DFS over plain hypothesis edges only."""
    visited: list[Node] = []

    def seen(t: Node) -> bool:
        return any(node_eq(t, v) for v in visited)

    def walk(cur: Node) -> Optional[list[Node]]:
        if node_eq(cur, to):
            return []
        visited.append(cur)
        for (a, b, term) in edges:
            if node_eq(cur, a) and not seen(b):
                rest = walk(b)
                if rest is not None:
                    return [term] + rest
        return None

    parts = walk(frm)
    if parts is None or not parts:
        return None if parts is None else Refl(frm)
    eta = parts[-1]
    for p in reversed(parts[:-1]):
        eta = Trans(p, eta)
    return eta


def _add_node(nodeset: list[Node], n: Node) -> None:
    if not any(node_eq(n, m) for m in nodeset):
        nodeset.append(n)
