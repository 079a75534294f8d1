"""Values, evaluation contexts, and the small-step reduction relation, with
one rule set behind the deterministic evaluator (`whnf`), the successor
enumerator (`step_all`) and the specializer, whose normalizer takes every
rule but β_open: it unfolds lets by β_let and applies each instance to a
call site's arguments by β→, β∀ and δ_guard.

Absorptive frames (function position of applications, coercion position of
casts, scrutinees, all coercion combinator positions) are those through
which `0` absorbs (ζ) and choices distribute (κ); evaluation contexts also
enter both sides of a choice. Arguments of constructor spines are not
contexts: evaluation is lazy. The nodes below a node on absorptive paths
form its region, and a region root is the whole term or a node in a
non-absorptive position (a choice side; for the specializer, which also
descends under binders and into arguments, any such position).

A `Decomposition` holds the focus and an explicit stack of frames above it
and walks the term in preorder. The deterministic strategy takes the first
step of that walk, a redex or ζ/κ, and checks ζ/κ only at region roots,
since an absorptive child's region lies inside its parent's. After each
step, `normalize` refocuses (Danvy & Nielsen, "Refocusing in reduction
semantics", 2004): it re-runs only the checks the contractum can change
and resumes the walk from the frame stack, rebuilding the whole term only
for a `trace` callback.

`normalize` also watches for a repeated whole term, by Brent's method (see
`normalize`). The step is a function of the term, so a term the step
revisits loops forever: `whnf` returns `Diverges` with the term and the
period, and the specializer fails as on a spent budget. Fuel stays the
bound: a loop not found within it ends out of fuel.

`step_all` is composed from subterms: the successors of a node are its
redexes, then ζ and κ on each `0` and choice of its region, then each
evaluation-context child's successors rebuilt into it, in order, without
repeats. That is the preorder walk's list, and since rebuilding at one
position is injective, dropping repeats at each level drops the same ones
as at the top. The region's `0`s and choices, its items, are composed the
same way: for each absorptive child in order, a `0` is a ζ item, a choice
is the pair of the node with either side in its place, and any other child
gives its own items with both sides rebuilt into the node. So a node
rebuilds one node per side of an item, where a walk of its region would
rebuild the whole path down to it, and `step_all` on a `Sym` tower is
linear in its depth. The input is first hashed bottom-up without
recursion, so a deep argument, which no walk enters, cannot exhaust the
stack. Lists and items are kept in a memo keyed by node. `eval_all` holds
one memo for its whole search, so a subterm that many frontier terms share
is expanded once per search: a successor differs from its parent only
along one path, and only the nodes on that path are expanded anew.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Union

from .syntax import (
    Node, Star, KArr, TVar, TCon, TApp, EqTy, Forall, Con, Ref, Lam,
    App, TyLam, TyApp, Cast, Pattern, If, Guard, Zero, Choice, Refl, Sym,
    Trans, CApp, Fst, Snd, Univ, CInst, Sim, Env, ZERO, FIELDS, DATA,
    PATTERN, node_eq, spine, plug_spine,
)
from .subst import instantiate
from .typecheck import CheckError, kind_of


# ------------------------------------------------------------- outcomes

@dataclass(frozen=True)
class Stepped:
    node: Node


@dataclass(frozen=True)
class IsValue:
    pass


@dataclass(frozen=True)
class IsZero:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str


StepOutcome = Union[Stepped, IsValue, IsZero, Stuck]


@dataclass(frozen=True)
class Hit:
    args: tuple[tuple[bool, Node], ...]


@dataclass(frozen=True)
class Miss:
    pass


@dataclass(frozen=True)
class NotReady:
    pass


MISS = Miss()
NOT_READY = NotReady()


# ------------------------------------------------------------- values

def _const_head(term: Node) -> bool:
    while True:
        match term:
            case Con():
                return True
            case App(f, _) | TyApp(f, _):
                term = f
            case _:
                return False


def is_value(m: Node) -> bool:
    match m:
        case Con() | Lam() | TyLam() | Refl():
            return True
        case App() | TyApp():
            return _const_head(m)
        case Choice(l, r):
            return is_value(l) and is_value(r)
        # types and kinds never reduce
        case TVar() | TCon() | Forall() | Star() | KArr():
            return True
        case TApp(f, a):
            return is_value(f) and is_value(a)
        case EqTy(l, r, _):
            return is_value(l) and is_value(r)
    return False


# ---------------------------------------------------------- pattern hits

def match_pattern(scrut: Node, p: Pattern) -> Union[Hit, Miss, NotReady]:
    """Decide a guard/if against a scrutinee spine.

    NotReady while the scrutinee head is not a constant; otherwise Hit with
    the residual spine (extra type arguments, then term arguments) exactly
    when the heads agree and the leading type arguments match the pattern's.
    """
    head, args = spine(scrut)
    if not isinstance(head, Con):
        return NOT_READY
    if head.name != p.head:
        return MISS
    want = len(p.type_args)
    lead = 0
    while lead < len(args) and args[lead][0]:
        lead += 1
    if lead < want:
        return MISS
    for i in range(want):
        if not node_eq(args[i][1], p.type_args[i]):
            return MISS
    return Hit(tuple(args[want:]))


def _open_unfold(env: Env, name: str) -> Node:
    """`0 <+> (M1 <+> (... <+> Mk))` over the instances in scope order."""
    bodies = env.instance_defs(name)
    if not bodies:
        return ZERO
    tail = bodies[-1]
    for body in reversed(bodies[:-1]):
        tail = Choice(body, tail)
    return Choice(ZERO, tail)


# ------------------------------------------------------------- redexes

def top_redexes(env: Env, m: Node) -> list[tuple[str, Node]]:
    """Rule applications with the redex at the root of `m`."""
    out: list[tuple[str, Node]] = []
    match m:
        case App(Lam(_, body), arg):
            out.append(("β→", instantiate(body, arg)))
        case TyApp(TyLam(_, body), arg):
            out.append(("β∀", instantiate(body, arg)))
        case Sym(Refl(t)):
            out.append(("δ_refl", Refl(t)))
        case Trans(Refl(a), Refl(b)) if node_eq(a, b):
            out.append(("δ_;", Refl(a)))
        case CApp(Refl(a), Refl(b)):
            out.append(("δ_@", Refl(TApp(a, b))))
        case CInst(Refl(Forall(_, body)), t):
            out.append(("δ_@[]", Refl(instantiate(body, t))))
        case Fst(Refl(TApp(f, _))):
            out.append(("δ_fst", Refl(f)))
        case Snd(Refl(TApp(_, a))):
            out.append(("δ_snd", Refl(a)))
        case Sim(Refl(a), Refl(b)):
            try:
                k = kind_of(env, a)
            except CheckError:
                k = None
            if k is not None:
                out.append(("δ_~", Refl(EqTy(a, b, k))))
        case Univ(k, Refl(t)):
            out.append(("δ_∀", Refl(Forall(k, t))))
        case Cast(subj, Refl(_)):
            out.append(("δ_▷", subj))
        case Choice(left, right):
            if left == ZERO:
                out.append(("β_0-1", right))
            if right == ZERO:
                out.append(("β_0-2", left))
        case If(scrut, pat, cons, alt):
            match match_pattern(scrut, pat):
                case Hit(args):
                    out.append(("δ_if-1", plug_spine(cons, list(args))))
                case Miss():
                    out.append(("δ_if-2", alt))
        case Guard(scrut, pat, cons):
            match match_pattern(scrut, pat):
                case Hit(args):
                    out.append(("δ_guard-1", plug_spine(cons, list(args))))
                case Miss():
                    out.append(("δ_guard-2", ZERO))
        case Ref(name):
            if env.method_sig(name) is not None:
                out.append(("β_open", _open_unfold(env, name)))
            elif (ld := env.let_def(name)) is not None:
                out.append(("β_let", ld.body))
    return out


# ------------------------------------------------------------- contexts

# Absorptive positions per node class, in evaluation order.
_ABSORPTIVE = {
    App: ("fun",), TyApp: ("fun",), Cast: ("coercion",), If: ("scrut",),
    Guard: ("scrut",), Sym: ("arg",), Trans: ("left", "right"),
    CApp: ("left", "right"), Fst: ("arg",), Snd: ("arg",), Univ: ("body",),
    CInst: ("coercion",), Sim: ("left", "right"),
}


def _rebuilder(cls: type, name: str) -> Callable[[Node, Node], Node]:
    """The function that builds a node of class `cls` from one of them and a
    new node for field `name`: the constructor on the other fields, read by
    one `attrgetter` (a list comprehension over `FIELDS` cost twice as
    much)."""
    names = [f for f, _ in FIELDS[cls]]
    i = names.index(name)
    rest = names[:i] + names[i + 1:]
    if not rest:
        return lambda parent, x: cls(x)
    if len(rest) == 1:
        get = attrgetter(rest[0])
        if i == 0:
            return lambda parent, x: cls(x, get(parent))
        return lambda parent, x: cls(get(parent), x)
    get = attrgetter(*rest)

    def rebuild(parent: Node, x: Node) -> Node:
        others = get(parent)
        return cls(*others[:i], x, *others[i:])
    return rebuild


# Per node class, the fields that hold a node, kinds and types included.
_NODE_FIELDS = {cls: [name for name, role in shape
                      if role not in (DATA, PATTERN)]
                for cls, shape in FIELDS.items()}

# The one rebuild function of each (node class, field that holds a node).
_REBUILD = {(cls, name): _rebuilder(cls, name)
            for cls, names in _NODE_FIELDS.items() for name in names}


def _frames(positions: dict) -> dict:
    """Per node class, the positions a walk enters, in order, each as
    (field, absorptive?, rebuild function)."""
    return {cls: tuple((name, name in _ABSORPTIVE.get(cls, ()),
                        _REBUILD[cls, name]) for name in names)
            for cls, names in positions.items()}


# Regions; evaluation contexts, which also enter both sides of a choice; and
# the specializer's contexts, every field that holds a node, under binders
# too (kinds and types included, though no rule fires in them).
ABSORB_FRAMES = _frames(_ABSORPTIVE)
EVAL_FRAMES = _frames({**_ABSORPTIVE, Choice: ("left", "right")})
ALL_FRAMES = _frames(_NODE_FIELDS)


class Decomposition:
    """A term split into a focus and the frames above it, walked in preorder.

    A frame is an immutable `(parent, positions, index)`. After a
    contraction, the parents above the focus still hold the old child at
    their index; the walk rebuilds a parent when it leaves that child,
    `plug` all of them.
    """

    __slots__ = ("node", "frames", "table")

    def __init__(self, term: Node, table: dict):
        self.node, self.frames, self.table = term, [], table

    def copy(self) -> Decomposition:
        """A snapshot that later walks of `self` leave as it is: the frames
        are immutable, so copying the list of them is enough."""
        snapshot = Decomposition(self.node, self.table)
        snapshot.frames = self.frames[:]
        return snapshot

    def plug(self, x: Node, depth: int = 0) -> Node:
        """The subterm at `depth` (the whole term at 0), with `x` in place
        of the focus."""
        for parent, positions, i in reversed(self.frames[depth:]):
            x = positions[i][2](parent, x)
        return x

    def advance(self) -> bool:
        """Move to the next node in preorder; at the end, return False with
        the whole term as the focus."""
        frames = self.frames
        positions = self.table.get(type(self.node))
        if positions:
            frames.append((self.node, positions, 0))
            self.node = getattr(self.node, positions[0][0])
            return True
        while frames:
            parent, positions, i = frames[-1]
            if getattr(parent, positions[i][0]) is not self.node:
                parent = positions[i][2](parent, self.node)
            if i + 1 < len(positions):
                frames[-1] = (parent, positions, i + 1)
                self.node = getattr(parent, positions[i + 1][0])
                return True
            frames.pop()
            self.node = parent
        return False


def _absorbed(frames: list, depth: int) -> bool:
    """Whether the node at `depth` > 0 sits in an absorptive position."""
    _, positions, i = frames[depth - 1]
    return positions[i][1]


def _region_root(frames: list, depth: int) -> int:
    while depth and _absorbed(frames, depth):
        depth -= 1
    return depth


def _region(m: Node):
    """Each `0` and choice below `m` on a nonempty absorptive path, with
    the walk of the region of `m` stopped at it."""
    region = Decomposition(m, ABSORB_FRAMES)
    while region.advance():
        if isinstance(region.node, (Zero, Choice)):
            yield region


def _zeta_kappa(m: Node) -> Optional[tuple[str, Node]]:
    """ζ when the region of `m` holds a `0`, else κ on its first choice of
    two values."""
    kappa = None
    for region in _region(m):
        n = region.node
        if isinstance(n, Zero):
            return "ζ", ZERO
        if kappa is None and is_value(n.left) and is_value(n.right):
            kappa = "κ", Choice(region.plug(n.left), region.plug(n.right))
    return kappa


def _steps(env: Env, d: Decomposition, skip: frozenset = frozenset()):
    """The steps from the focus on, in the walk's order, with `d` at the
    node each one rewrites: its redexes, then the first ζ/κ of a region
    root, since an absorptive child's region lies inside its parent's and
    the first step is all the strategy takes."""
    while True:
        for tag, contractum in top_redexes(env, d.node):
            if tag not in skip:
                yield tag, contractum
        if not d.frames or not _absorbed(d.frames, len(d.frames)):
            hit = _zeta_kappa(d.node)
            if hit is not None:
                yield hit
        if not d.advance():
            return


def _refocus(env: Env, d: Decomposition,
             skip: frozenset) -> Optional[tuple[str, Node]]:
    """The next step after the focus became the contractum `c`.

    Every ancestor's checks failed on the old term and the subterms left of
    the path are unchanged, so only the checks `c` can change run again,
    top-down: the redex of its parent and of an `if` or guard whose
    scrutinee has `c` at the head of its spine; ζ/κ at the region root
    above `c` when `c` or its region holds a `0` or a choice of values; and
    κ at the region root above a choice that `c` turned into a value. Then
    the walk goes on from `c`.
    """
    frames, c = d.frames, d.node
    k = len(frames)
    redo = {k - 1: False} if k else {}  # depth -> run ζ/κ there too
    # c and its region make up the region of Sym(c)
    if k and _absorbed(frames, k) and _zeta_kappa(Sym(c)) is not None:
        redo[_region_root(frames, k - 1)] = True
    # only a value `c` can make a choice above it a value, and only a
    # constant-headed one decides an `if` or guard above its spine
    value, head = is_value(c), _const_head(c)
    for j in range(k - 1, -1, -1):
        parent, _, i = frames[j]
        if not value:
            break
        if i == 0 and type(parent) in (App, TyApp):
            value = head
        elif type(parent) is Choice:
            value = is_value(parent.right if i == 0 else parent.left)
            head = False
            if value and j and _absorbed(frames, j):
                redo[_region_root(frames, j - 1)] = True
                break
        else:
            if head and i == 0 and type(parent) in (If, Guard):
                redo.setdefault(j, False)
            break
    for j in sorted(redo):
        node = d.plug(c, j)
        hit = next((r for r in top_redexes(env, node) if r[0] not in skip),
                   None)
        if hit is None and redo[j]:
            hit = _zeta_kappa(node)
        if hit is not None:
            del frames[j:]
            d.node = node
            return hit
    return next(_steps(env, d, skip), None)


def _same(a: Node, b: Node) -> bool:
    """`a == b` over an explicit stack: the dataclass equality recurses once
    per level of the term. Fields are compared in order, as `==` does, so
    terms that differ near the head of a long spine part at once."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        for name, role in reversed(FIELDS[type(a)]):
            x, y = getattr(a, name), getattr(b, name)
            if role == DATA:
                if x != y:
                    return False
            elif role == PATTERN:
                if (x.head != y.head
                        or len(x.type_args) != len(y.type_args)):
                    return False
                todo += zip(x.type_args, y.type_args)
            else:
                todo.append((x, y))
    return True


def normalize(env: Env, m: Node, fuel: int, table: dict = EVAL_FRAMES,
              skip: frozenset = frozenset(),
              trace: Optional[Callable[[str, Node], None]] = None,
              ) -> tuple[Node, int, int]:
    """Take the first step at most `fuel` times, refocusing after each, with
    the rules in `skip` left out. Returns the last term, the fuel left,
    which is 0 only when the fuel ran out or the last step made a repeat,
    and the period of a repeat: 0 unless the step revisited a whole term,
    which then recurs every `period` steps forever, since the step is a
    function of the term.

    Repeats are found by Brent's method (R. P. Brent, "An improved Monte
    Carlo factorization algorithm", BIT 20, 1980): the state after each
    power-of-two step is kept and each later state compared with it, so a
    cycle is found within a few times the steps before it plus its period,
    and the period found is the least. A state is the focus and the frames
    above it; the step taken from a term fixes the position of the next
    contractum, so on a cycle the states repeat with the terms. Keeping one
    copies the list of immutable frames, and comparing one checks the depth,
    then the focus, and plugs and compares the whole terms only when both
    match.
    """
    d = Decomposition(m, table)
    hit = next(_steps(env, d, skip), None) if fuel > 0 else None
    n, mark = 0, None  # steps taken; the state kept after step `at`
    while hit is not None:
        tag, d.node = hit
        n += 1
        if trace is not None:
            trace(tag, d.plug(d.node))
        if (mark is not None and len(d.frames) == len(mark.frames)
                and _same(d.node, mark.node)):
            term = d.plug(d.node)
            if _same(term, mark.plug(mark.node)):
                return term, fuel - n, n - at
        if n == fuel:
            return d.plug(d.node), 0, 0
        if n & (n - 1) == 0:
            mark, at = d.copy(), n
        hit = _refocus(env, d, skip)
    return d.node, fuel - n, 0


# ------------------------------------------------------------- step_all

def _hash_all(m: Node) -> None:
    """Store the hash of every node of `m`, children before parents, with no
    recursion: the first `hash()` of a node recurses down all its fields,
    the arguments that no evaluation-context walk enters too. The walk lists
    the nodes with no stored hash, each after its parent, and hashes them
    in reverse; a hashed `m` costs one attribute read. (The type arguments
    of a pattern are left to `hash()`.)"""
    if m._hash is not None:
        return
    order = [m]
    for n in order:
        for f, _, _ in ALL_FRAMES[type(n)]:
            c = getattr(n, f)
            if c._hash is None:
                order.append(c)
    for n in reversed(order):
        hash(n)


def _successors(env: Env, m: Node, memo: dict) -> tuple[Node, ...]:
    """The successors of `m`, from those of its evaluation-context children
    in `memo`, which this fills for every subterm it computes with the pair
    (successors, region items). A node's list is its redexes, then ζ and κ
    on each item of its region, then each child's list rebuilt into it, in
    `EVAL_FRAMES` order, keeping first occurrences (a dict keeps the order
    keys are first set in). An item is `None` for ζ, or the two sides of κ;
    see the module docstring for how a node's items come from its
    children's. The walk is post-order over an explicit stack: a node is
    pushed again, ready, under its children."""
    _hash_all(m)
    todo = [(m, False)]
    while todo:
        n, ready = todo.pop()
        positions = EVAL_FRAMES.get(type(n), ())
        if not ready:
            if n not in memo:
                todo.append((n, True))
                todo += [(getattr(n, f), False) for f, _, _ in positions]
            continue
        out = {}
        for _, c in top_redexes(env, n):
            out[c] = None
        items, lists = [], []
        for f, absorptive, rebuild in positions:
            child = getattr(n, f)
            succs, below = memo[child]
            if absorptive:
                if type(child) is Zero:
                    items.append(None)
                elif type(child) is Choice:
                    items.append((rebuild(n, child.left),
                                  rebuild(n, child.right)))
                else:
                    items += [None if item is None
                              else (rebuild(n, item[0]), rebuild(n, item[1]))
                              for item in below]
            if succs:
                lists.append((rebuild, succs))
        for item in items:
            out[ZERO if item is None else Choice(*item)] = None
        for rebuild, succs in lists:
            for s in succs:
                out[rebuild(n, s)] = None
        memo[n] = tuple(out), tuple(items)
    return memo[m][0]


def step_all(env: Env, m: Node) -> list[Node]:
    """Every one-step successor, without repeats: at each focus in preorder,
    its redexes, then ζ and κ on every `0` and choice in its region."""
    return list(_successors(env, m, {}))


# ------------------------------------------------------------- step_det

def step_det_tagged(env: Env, m: Node) -> Optional[tuple[str, Node]]:
    """Leftmost-outermost strategy: redex, then zeta, then kappa, then
    descend into the first reducible evaluation frame. Public as the
    calculus's one-step reduction, with the rule that fired."""
    d = Decomposition(m, EVAL_FRAMES)
    hit = next(_steps(env, d), None)
    return None if hit is None else (hit[0], d.plug(hit[1]))


def step_det(env: Env, m: Node) -> StepOutcome:
    """One deterministic step, or why there is none (value, zero, stuck)."""
    if is_value(m):
        return IsValue()
    if m == ZERO:
        return IsZero()
    stepped = step_det_tagged(env, m)
    if stepped is None:
        return Stuck("no rule applies to a non-value, non-zero term")
    return Stepped(stepped[1])


# ------------------------------------------------------------- drivers

@dataclass(frozen=True)
class Value:
    node: Node


@dataclass(frozen=True)
class ZeroResult:
    pass


@dataclass(frozen=True)
class OutOfFuel:
    node: Node


@dataclass(frozen=True)
class StuckResult:
    node: Node


@dataclass(frozen=True)
class Diverges:
    """The deterministic step revisited the whole term `node`, which recurs
    every `period` steps: the term loops forever."""
    node: Node
    period: int


WhnfResult = Union[Value, ZeroResult, OutOfFuel, StuckResult, Diverges]

DEFAULT_FUEL = 100_000


def whnf(env: Env, m: Node, fuel: int = DEFAULT_FUEL,
         trace: Optional[Callable[[str, Node], None]] = None) -> WhnfResult:
    """Take the deterministic step at most `fuel` times. A value has no
    step, so the walk stops at one without testing for it. When the step
    revisits a whole term, the term loops forever, and the result is
    `Diverges` with the repeated term and the period; fuel stays the bound,
    so a cycle not found within it ends in `OutOfFuel`."""
    term, left, period = normalize(env, m, fuel, trace=trace)
    if period:
        return Diverges(term, period)
    if is_value(term):
        return Value(term)
    if term == ZERO:
        return ZeroResult()
    return OutOfFuel(term) if left <= 0 else StuckResult(term)


def eval_all(env: Env, m: Node, fuel: int = DEFAULT_FUEL,
             ) -> tuple[list[Node], bool]:
    """Breadth-first enumeration of reachable terminal terms (values and
    zero), up to `fuel` node expansions; second component reports whether
    the frontier was exhausted. One successor memo serves the whole search,
    so a subterm shared by many frontier terms is expanded once."""
    _hash_all(m)
    seen = {m}
    queue = deque([m])
    memo: dict = {}
    terminals: list[Node] = []
    while queue:
        if fuel <= 0:
            return terminals, False
        fuel -= 1
        current = queue.popleft()
        successors = _successors(env, current, memo)
        if not successors:
            terminals.append(current)
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return terminals, True
