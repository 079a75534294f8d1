"""Static analyses over core programs: the three-condition discipline under
which open functions are statically determined, the saturation check, the
syntactic no-zero guarantee, and the specializer that eliminates guards,
zeros, and open-function references from concrete call sites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .printer import print_node
from .reduction import ALL_FRAMES, Decomposition, normalize
from .syntax import (
    Node, TCon, Var, Con, Ref, Lam, App, TyLam, TyApp, Cast, Pattern,
    Guard, Zero, Choice, Env, MethodDecl, InstanceDecl, LetDecl,
    OpenTypeDecl, Decl, ZERO,
    spine, plug_spine, split_ctor_type, spine_head, subnodes, children,
)
from .typecheck import CheckError, _fail, check_program


class AnalysisError(CheckError):
    """A call site the specializer cannot resolve, or an ill-typed program
    handed to the analysis."""


# --------------------------------------------------------------- reports

@dataclass(frozen=True)
class GuardPreamble:
    """The leading guards of an instance body, outermost first; extraction
    stops at the first node that is neither a guard nor a binder."""

    patterns: tuple[Pattern, ...]

    @property
    def heads(self) -> tuple[str, ...]:
        return tuple(p.head for p in self.patterns)


@dataclass
class FunctionReport:
    name: str
    condition1: list[str] = field(default_factory=list)
    condition2: list[str] = field(default_factory=list)
    condition3_missing: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.condition1 or self.condition2
                    or self.condition3_missing)


@dataclass
class HssdiReport:
    functions: dict[str, FunctionReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.functions.values())

    def to_records(self) -> list[dict]:
        out = []
        for name, rep in sorted(self.functions.items()):
            out.append({
                "function": name,
                "ok": rep.ok,
                "condition1": rep.condition1,
                "condition2": rep.condition2,
                "condition3_missing": [list(t) for t in
                                       rep.condition3_missing],
            })
        return out


# ---------------------------------------------------------- basic pieces

def extract_preamble(body: Node) -> GuardPreamble:
    patterns: list[Pattern] = []
    node = body
    while True:
        match node:
            case TyLam(_, inner) | Lam(_, inner):
                node = inner
            case Guard(_, pat, cons):
                patterns.append(pat)
                node = cons
            case _:
                return GuardPreamble(tuple(patterns))


def check_no_zero_syntactic(m: Node) -> bool:
    """No guards, zeros, or references to open functions / let bindings
    anywhere below `m`; such terms can never reduce to zero."""
    for sub in subnodes(m):
        if isinstance(sub, (Guard, Zero, Ref)):
            return False
    return True


def dict_param_positions(env: Env, method_type: Node) -> list[tuple[int, Node]]:
    """(term-argument ordinal, open type head) for every dictionary-typed
    parameter of an open function's declared type."""
    _, args, _ = split_ctor_type(method_type)
    out = []
    for i, a in enumerate(args):
        head = spine_head(a)
        if isinstance(head, TCon) and isinstance(env.type_sig(head.name),
                                                 OpenTypeDecl):
            out.append((i, head.name))
    return out


def _con_count(n: Node) -> int:
    return sum(1 for sub in subnodes(n) if isinstance(sub, Con))


def _peel_casts(n: Node) -> Node:
    while isinstance(n, Cast):
        n = n.subject
    return n


# ------------------------------------------------------------ conditions

def _check_condition3(env: Env, report: HssdiReport) -> None:
    """Every constructor tuple over an open function's dictionary parameters
    needs an instance whose guard preamble matches it exactly."""
    for entry in env.entries:
        if not isinstance(entry, MethodDecl):
            continue
        rep = report.functions.setdefault(entry.name,
                                          FunctionReport(entry.name))
        positions = dict_param_positions(env, entry.type)
        if not positions:
            continue
        ctor_sets = []
        for _, open_ty in positions:
            ctor_sets.append(tuple(env.ctors_of(open_ty)))
        if any(not cs for cs in ctor_sets):
            continue  # no constructors: no permutations exist
        preambles = [extract_preamble(b).heads
                     for b in env.instance_defs(entry.name)]
        for combo in itertools.product(*ctor_sets):
            heads = tuple(c.name for c in combo)
            if heads not in preambles:
                rep.condition3_missing.append(heads)


def _call_sites(body: Node):
    """Yield (call-site spine, enclosing binder count, enclosing guard count)
    for every applied open-function reference in an instance or let body."""
    sites = []

    def walk(node: Node, binders: int, guards: int) -> None:
        head, args = spine(node)
        if isinstance(head, Ref):
            sites.append((head, args, binders, guards))
            for is_ty, a in args:
                if not is_ty:
                    walk(a, binders, guards)
            return
        match node:
            case Lam(_, inner) | TyLam(_, inner):
                walk(inner, binders + 1, guards)
            case Guard(scrut, _, cons):
                walk(scrut, binders, guards)
                walk(cons, binders, guards + 1)
            case _:
                for child in children(node):
                    walk(child, binders, guards)

    walk(body, 0, 0)
    return sites


def _check_calls(env: Env, owner: Optional[str], body: Node,
                 report: HssdiReport) -> None:
    """Conditions 1 and 2 for every open-function call site in `body`;
    `owner` names the open function when the body is one of its instances."""
    for head, args, binders, guards in _call_sites(body):
        sig = env.method_sig(head.name)
        if sig is None:
            continue
        rep = report.functions.setdefault(head.name,
                                          FunctionReport(head.name))
        positions = dict_param_positions(env, sig.type)
        term_args = [a for is_ty, a in args if not is_ty]
        evidence_size = 0
        for ordinal, _ in positions:
            if ordinal >= len(term_args):
                rep.condition2.append(
                    f"{head.name!r} is used without all of its evidence "
                    f"arguments")
                continue
            arg = _peel_casts(term_args[ordinal])
            evidence_size += _con_count(arg)
            arg_head, _ = spine(arg)
            # statically determined evidence: a constructor spine, a bound
            # dictionary variable, an applied open function (checked at its
            # own site), or a let reference (unfolded by β_let first)
            if isinstance(arg_head, (Con, Ref)):
                continue
            if isinstance(arg_head, Var) and arg_head.index < binders:
                continue
            rep.condition2.append(
                f"call of {head.name!r} passes non-concrete evidence "
                f"{print_node(term_args[ordinal])}")
        if owner == head.name and evidence_size >= guards:
            rep.condition1.append(
                f"recursive call of {head.name!r} with evidence size "
                f"{evidence_size} under {guards} guard(s)")


def _checked(program: list[Decl], env: Optional[Env]) -> Env:
    full, diags = check_program(env if env is not None else Env(), program)
    if diags:
        raise AnalysisError(diags[0])
    return full


def check_hssdi(program: list[Decl], env: Optional[Env] = None) -> HssdiReport:
    """Run all three conditions over a typechecked program."""
    return hssdi_report(_checked(program, env))


def hssdi_report(env: Env) -> HssdiReport:
    """All three conditions over a checked environment."""
    report = HssdiReport()
    for entry in env.entries:
        match entry:
            case InstanceDecl(name, body):
                _check_calls(env, name, body, report)
            case LetDecl(_, _, body):
                _check_calls(env, None, body, report)
    _check_condition3(env, report)
    return report


def check_saturation(program: list[Decl],
                     env: Optional[Env] = None) -> dict[str, list[tuple[str, ...]]]:
    """Condition three alone: per open function, the constructor tuples with
    no exactly-matching guard preamble."""
    full = _checked(program, env)
    report = HssdiReport()
    _check_condition3(full, report)
    return {name: rep.condition3_missing
            for name, rep in report.functions.items()}


# ------------------------------------------------------------ specializer

DEFAULT_SPECIALIZE_BUDGET = 200_000
_KEEP_OPEN = frozenset({"β_open"})


def _admin_normalize(env: Env, m: Node, budget: list[int]) -> Node:
    """Every reduction but β_open, anywhere in the term (under binders too),
    in the deterministic order: lets unfold by β_let, guards by δ_guard.
    A repeated term never normalizes, so it fails as a spent budget does."""
    m, budget[0], period = normalize(env, m, budget[0], ALL_FRAMES,
                                     _KEEP_OPEN)
    if budget[0] <= 0 or period:
        _fail("specialize-budget",
              "specialization did not terminate within budget",
              error=AnalysisError)
    return m


def _method_site(env: Env, m: Node) -> Optional[Decomposition]:
    """Innermost maximal open-function spine, so evidence-computing calls
    unfold before any call that scrutinizes their result: the first such
    spine in postorder. The preorder walk keeps the last one it met and
    stops on leaving that one's subtree."""
    d, site = Decomposition(m, ALL_FRAMES), None
    while site is None or len(d.frames) > len(site.frames):
        head, _ = spine(d.node)
        in_spine_fun = d.frames and d.frames[-1][2] == 0 and isinstance(
            d.frames[-1][0], (App, TyApp))
        if (not in_spine_fun and isinstance(head, Ref)
                and env.method_sig(head.name) is not None):
            site = d.copy()
        if not d.advance():
            break
    return site


def specialize(env: Env, m: Node,
               budget: int = DEFAULT_SPECIALIZE_BUDGET) -> Node:
    """Unfold open functions at concrete evidence and eliminate zeros, by
    the reduction engine's own rules: each pass normalizes the term with
    every rule but β_open, so lets unfold by β_let, then replaces the
    innermost call site with the choice of the instances that survive being
    applied to its arguments and normalized. An instance that reduces to
    `0` misses; one stuck on a guard whose scrutinee is not concrete
    evidence is an error. The result is guard-, zero-, and reference-free
    and keeps the term's type."""
    if check_no_zero_syntactic(m):
        return m
    fuel = [budget]
    while True:
        # charge the pass for its two walks of the term (normalization,
        # call-site search) too, so that a cycle of unfoldings ends
        fuel[0] -= 2 * sum(1 for _ in subnodes(m))
        m = _admin_normalize(env, m, fuel)
        site = _method_site(env, m)
        if site is None:
            break
        head, args = spine(site.node)
        assert isinstance(head, Ref)
        sig = env.method_sig(head.name)
        positions = dict_param_positions(env, sig.type)
        term_args = [a for is_ty, a in args if not is_ty]
        if positions and (not term_args
                          or positions[-1][0] >= len(term_args)):
            _fail("not-hssdi", f"open function {head.name!r} is not applied "
                               f"to all of its evidence arguments",
                  error=AnalysisError)
        survivors = []
        for body in env.instance_defs(head.name):
            reduced = _admin_normalize(env, plug_spine(body, args), fuel)
            # κ may have lifted a choice of dictionaries over a guard, so
            # each alternative is checked for a guard stuck at its head
            alternatives = [reduced]
            while alternatives:
                alt = alternatives.pop()
                if isinstance(alt, Choice):
                    alternatives += (alt.right, alt.left)
                    continue
                stuck, _ = spine(alt)
                if isinstance(stuck, Guard):
                    _fail("not-hssdi", f"guard scrutinee is not concrete "
                                       f"evidence: {print_node(stuck.scrut)}",
                          error=AnalysisError)
            if reduced != ZERO:
                survivors.append(reduced)
        if not survivors:
            _fail("unsaturated", f"no instance of {head.name!r} matches the "
                                 f"call site {print_node(site.node)}",
                  error=AnalysisError)
        replacement = survivors[-1]
        for s in reversed(survivors[:-1]):
            replacement = Choice(s, replacement)
        m = site.plug(replacement)
    return m
