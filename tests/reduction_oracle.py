"""Reference reduction walkers, kept as the differential oracle for the
refocusing engine in `fdc.reduction`.

These are the original recursive walkers: `step_det_tagged` re-runs the
zeta/kappa searches at every frame level, `whnf` restarts from the root after
every step, `step_all` rebuilds through composed plug closures and walks the
whole term for each term `eval_all` expands, and
`_admin_step` is the specializer's own descent, with every rule but β_open.
`specialize` is the original specializer: it substitutes lets with its own
recursive walk, finds call sites with its own recursive search, and applies
instances by hand, resolving their guard preambles. They share only
`top_redexes`, `is_value` and `match_pattern` with the engine under test.
They are slow (cubic in depth on `Sym` towers), so tests run them on small
inputs only.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from fdc.analysis import (
    DEFAULT_SPECIALIZE_BUDGET, AnalysisError, check_no_zero_syntactic,
    dict_param_positions,
)
from fdc.printer import print_node
from fdc.reduction import (
    DEFAULT_FUEL, Hit, Miss, NotReady, OutOfFuel, StuckResult, Value,
    WhnfResult, ZeroResult, is_value, match_pattern, top_redexes,
)
from fdc.subst import instantiate
from fdc.syntax import (
    App, CApp, CInst, Cast, Choice, Env, Fst, Guard, If, Lam, Node, Ref, Sim,
    Snd, Sym, Trans, TyApp, TyLam, Univ, ZERO, children, map_children,
    plug_spine, spine,
)
from fdc.typecheck import Diagnostic, _fail

Plug = Callable[[Node], Node]


def a_children(m: Node) -> list[tuple[Node, Plug]]:
    """Absorptive-frame children, in evaluation order."""
    match m:
        case App(f, a):
            return [(f, lambda x: App(x, a))]
        case TyApp(f, t):
            return [(f, lambda x: TyApp(x, t))]
        case Cast(subj, co):
            return [(co, lambda x: Cast(subj, x))]
        case If(s, p, c, alt):
            return [(s, lambda x: If(x, p, c, alt))]
        case Guard(s, p, c):
            return [(s, lambda x: Guard(x, p, c))]
        case Sym(a):
            return [(a, Sym)]
        case Trans(l, r):
            return [(l, lambda x: Trans(x, r)), (r, lambda x: Trans(l, x))]
        case CApp(l, r):
            return [(l, lambda x: CApp(x, r)), (r, lambda x: CApp(l, x))]
        case Fst(a):
            return [(a, Fst)]
        case Snd(a):
            return [(a, Snd)]
        case Univ(k, b):
            return [(b, lambda x: Univ(k, x))]
        case CInst(co, t):
            return [(co, lambda x: CInst(x, t))]
        case Sim(l, r):
            return [(l, lambda x: Sim(x, r)), (r, lambda x: Sim(l, x))]
    return []


def e_children(m: Node) -> list[tuple[Node, Plug]]:
    """Full-frame children: absorptive frames plus both choice sides."""
    match m:
        case Choice(l, r):
            return [(l, lambda x: Choice(x, r)), (r, lambda x: Choice(l, x))]
    return a_children(m)


def step_all(env: Env, m: Node) -> list[Node]:
    """Every one-step successor derivable by the reduction relation."""
    out: list[Node] = []
    seen: set[Node] = set()

    def emit(n: Node) -> None:
        if n not in seen:
            seen.add(n)
            out.append(n)

    def absorb_scan(node: Node, replace: Plug, rebuild: Plug) -> None:
        # zeta collapses any nonempty A-path to a 0; kappa lifts a choice
        # over any nonempty A-path
        for child, plug in a_children(node):
            composed = lambda x, r=replace, p=plug: r(p(x))
            if child == ZERO:
                emit(rebuild(ZERO))
            if isinstance(child, Choice):
                emit(rebuild(Choice(composed(child.left),
                                    composed(child.right))))
            absorb_scan(child, composed, rebuild)

    def at_focus(focus: Node, rebuild: Plug) -> None:
        for _, contractum in top_redexes(env, focus):
            emit(rebuild(contractum))
        absorb_scan(focus, lambda x: x, rebuild)
        for child, plug in e_children(focus):
            at_focus(child, lambda x, p=plug: rebuild(p(x)))

    at_focus(m, lambda x: x)
    return out


def eval_all(env: Env, m: Node, fuel: int = DEFAULT_FUEL,
             ) -> tuple[list[Node], bool]:
    """Breadth-first search over `step_all`, at most `fuel` expansions:
    the terminal terms in the order reached, and whether the frontier was
    exhausted."""
    seen = {m}
    queue = deque([m])
    terminals: list[Node] = []
    while queue:
        if fuel <= 0:
            return terminals, False
        fuel -= 1
        current = queue.popleft()
        successors = step_all(env, current)
        if not successors:
            terminals.append(current)
        for n in successors:
            if n not in seen:
                seen.add(n)
                queue.append(n)
    return terminals, True


def _zeta_reachable(m: Node) -> bool:
    for child, _ in a_children(m):
        if child == ZERO or _zeta_reachable(child):
            return True
    return False


def _find_kappa(m: Node) -> Optional[tuple[Node, Node]]:
    """First value-choice under a nonempty absorptive path; returns the two
    distributed pluggings of the whole focus."""

    def go(node: Node, replace: Plug) -> Optional[tuple[Node, Node]]:
        for child, plug in a_children(node):
            composed = lambda x, r=replace, p=plug: r(p(x))
            if (isinstance(child, Choice) and is_value(child.left)
                    and is_value(child.right)):
                return composed(child.left), composed(child.right)
            found = go(child, composed)
            if found is not None:
                return found
        return None

    return go(m, lambda x: x)


def step_det_tagged(env: Env, m: Node) -> Optional[tuple[str, Node]]:
    """Leftmost-outermost strategy: redex, then zeta, then kappa, then
    descend into the first reducible evaluation frame."""
    redexes = top_redexes(env, m)
    if redexes:
        return redexes[0]
    if _zeta_reachable(m):
        return ("ζ", ZERO)
    kappa = _find_kappa(m)
    if kappa is not None:
        return ("κ", Choice(kappa[0], kappa[1]))
    for child, plug in e_children(m):
        inner = step_det_tagged(env, child)
        if inner is not None:
            return (inner[0], plug(inner[1]))
    return None


def whnf(env: Env, m: Node, fuel: int = DEFAULT_FUEL,
         trace: Optional[Callable[[str, Node], None]] = None) -> WhnfResult:
    """Iterate the deterministic step at most `fuel` times."""
    current = m
    remaining = fuel
    while True:
        if is_value(current):
            return Value(current)
        if current == ZERO:
            return ZeroResult()
        if remaining <= 0:
            return OutOfFuel(current)
        stepped = step_det_tagged(env, current)
        if stepped is None:
            return StuckResult(current)
        if trace is not None:
            trace(stepped[0], stepped[1])
        current = stepped[1]
        remaining -= 1


def _admin_step(env: Env, m: Node) -> Optional[Node]:
    """One deterministic reduction other than β_open, applied anywhere in
    the term (including under binders)."""
    for tag, contractum in top_redexes(env, m):
        if tag != "β_open":
            return contractum
    if _zeta_reachable(m):
        return ZERO
    kappa = _find_kappa(m)
    if kappa is not None:
        return Choice(kappa[0], kappa[1])
    changed = False

    def visit(child: Node) -> Node:
        nonlocal changed
        if changed:
            return child
        stepped = _admin_step(env, child)
        if stepped is not None:
            changed = True
            return stepped
        return child

    rebuilt = map_children(m, visit)
    return rebuilt if changed else None


def _admin_normalize(env: Env, m: Node, budget: list[int]) -> Node:
    while budget[0] > 0:
        stepped = _admin_step(env, m)
        if stepped is None:
            return m
        m = stepped
        budget[0] -= 1
    raise AnalysisError(Diagnostic(
        "specialize-budget", "specialization did not terminate within budget"))


def _subst_lets(env: Env, m: Node, active: frozenset[str] = frozenset()) -> Node:
    match m:
        case Ref(name):
            ld = env.let_def(name)
            if ld is None:
                return m
            if name in active:
                _fail("recursive-let", f"let {name!r} refers to itself",
                      error=AnalysisError)
            return _subst_lets(env, ld.body, active | {name})
    return map_children(m, lambda c: _subst_lets(env, c, active))


def _apply_instance(env: Env, body: Node, args: list[tuple[bool, Node]],
                    budget: list[int]) -> Optional[Node]:
    """Apply an instance body to call-site arguments, resolving its guard
    preamble; None when a guard misses."""
    node = body
    remaining = list(args)
    while True:
        node = _resolve_preamble(env, node, budget)
        if node is None:
            return None
        match node:
            case TyLam(_, inner) if remaining and remaining[0][0]:
                node = instantiate(inner, remaining.pop(0)[1])
            case Lam(_, inner) if remaining and not remaining[0][0]:
                node = instantiate(inner, remaining.pop(0)[1])
            case _:
                break
    result = plug_spine(node, remaining)
    return _resolve_preamble(env, result, budget)


def _resolve_preamble(env: Env, node: Node,
                      budget: list[int]) -> Optional[Node]:
    while isinstance(node, Guard):
        scrut = _admin_normalize(env, node.scrut, budget)
        outcome = match_pattern(scrut, node.pat)
        match outcome:
            case Hit(residual):
                node = plug_spine(node.cons, list(residual))
            case Miss():
                return None
            case NotReady():
                _fail("not-hssdi", f"guard scrutinee is not concrete "
                                   f"evidence: {print_node(scrut)}",
                      error=AnalysisError)
    return node


def _find_method_site(env: Env, m: Node,
                      in_spine_fun: bool = False) -> Optional[Node]:
    """Innermost maximal open-function spine, so evidence-computing calls
    unfold before any call that scrutinizes their result."""
    for i, child in enumerate(children(m)):
        child_in_fun = isinstance(m, (App, TyApp)) and i == 0
        found = _find_method_site(env, child, child_in_fun)
        if found is not None:
            return found
    if in_spine_fun:
        return None
    head, _ = spine(m)
    if isinstance(head, Ref) and env.method_sig(head.name) is not None:
        return m
    return None


def specialize(env: Env, m: Node,
               budget: int = DEFAULT_SPECIALIZE_BUDGET) -> Node:
    """Substitute lets, unfold open functions at concrete evidence, resolve
    guard preambles, and eliminate zeros; the result is guard-, zero-, and
    reference-free and keeps the term's type."""
    if check_no_zero_syntactic(m):
        return m
    fuel = [budget]
    while True:
        m = _admin_normalize(env, _subst_lets(env, m), fuel)
        site = _find_method_site(env, m)
        if site is None:
            break
        head, args = spine(site)
        assert isinstance(head, Ref)
        sig = env.method_sig(head.name)
        positions = dict_param_positions(env, sig.type)
        term_args = [a for is_ty, a in args if not is_ty]
        if positions and (not term_args
                          or positions[-1][0] >= len(term_args)):
            raise AnalysisError(Diagnostic(
                "not-hssdi",
                f"open function {head.name!r} is not applied to all of its "
                f"evidence arguments"))
        survivors = []
        for body in env.instance_defs(head.name):
            reduced = _apply_instance(env, body, args, fuel)
            if reduced is not None:
                survivors.append(reduced)
        if not survivors:
            raise AnalysisError(Diagnostic(
                "unsaturated",
                f"no instance of {head.name!r} matches the call site "
                f"{print_node(site)}"))
        replacement = survivors[-1]
        for s in reversed(survivors[:-1]):
            replacement = Choice(s, replacement)
        m = _replace_once(m, site, replacement)
    return m


def _replace_once(m: Node, target: Node, new: Node) -> Node:
    done = False

    def go(n: Node) -> Node:
        nonlocal done
        if done:
            return n
        if n is target:
            done = True
            return new
        return map_children(n, go)

    out = go(m)
    assert done
    return out
