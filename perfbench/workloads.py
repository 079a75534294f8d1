"""The benchmark's three workloads as seeded pools of ops.

An op is one unit of user-visible work: its `run` is what the benchmark
times and its `check` compares the result with an answer from
`reference.py` or from the bundled golden files, never with one the code
under test computes. The seed draws a workload's pool once (names, Boolean
arguments, dictionary forms) and the order of each pass over it; the pool
always holds the same (family, size) cells, so every seed puts the same mix
of work in front of the program.

fdc names are imported into this module's namespace on purpose: the traced
run swaps them for wrappers, as it does in the fdc modules that import them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import fdc
from fdc.analysis import check_hssdi, specialize
from fdc.cli import main as cli_main
from fdc.corpus import corpus_text, prelude_env, prelude_text
from fdc.elaborate import elaborate_program
from fdc.parser import KEYWORDS, parse_core, parse_term
from fdc.printer import print_core
from fdc.propcheck import (
    PRELUDES, PROPERTIES, GenConfig, gen_well_typed, prelude_for,
)
from fdc.reduction import Value, eval_all, whnf
from fdc.surface import parse_surface
from fdc.syntax import (
    App, Con, Env, LetDecl, MethodDecl, OpenCtorDecl, OpenTypeDecl, Ref,
    Refl, Sym, TCon, Trans, ZERO,
)
from fdc.typecheck import check_program

import reference

# Per-op time limit in seconds. The slowest op seen on a 2-core machine
# takes about 1.5 s; the limit only catches a hang.
OP_LIMIT_S = 30.0


@dataclass
class Op:
    family: str
    size: str   # scaling-curve point, "" when the op is on no curve
    shape: str  # the input, described for failure records
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # mismatch message, or None


@dataclass
class Context:
    """What set-up builds: the prelude, the four fuzz preludes and the
    checked corpus environments."""
    prelude: Env
    sc_env: Env
    fd_env: Env
    corpus_dir: str


def build_context() -> Context:
    prelude = prelude_env()
    for name in PRELUDES:
        prelude_for(name)
    envs = []
    for name in ("superclasses.hsk", "fundeps.hsk"):
        decls, diags = elaborate_program(parse_surface(corpus_text(name)),
                                         prelude)
        if diags:
            raise RuntimeError(f"{name} does not elaborate: {diags[0]}")
        env, cdiags = check_program(prelude, decls)
        if cdiags:
            raise RuntimeError(f"{name} does not check: {cdiags[0]}")
        envs.append(env)
    corpus_dir = os.path.join(os.path.dirname(fdc.__file__), "corpus")
    return Context(prelude, envs[0], envs[1], corpus_dir)


def pool(workload: str, ctx: Context, seed: int) -> list[Op]:
    """The ops one pass of `workload` runs, in no particular order."""
    if workload == "fuzz-metatheory":
        return fuzz_pool()
    if workload == "elab-classes":
        return elab_pool(ctx, seed)
    if workload == "eval-deep":
        return eval_pool(ctx, seed)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ fuzz-metatheory

SUITES = tuple(PROPERTIES)


def fuzz_case(name: str, cfg: GenConfig, index: int):
    """Case `index` of `run_property(name, cfg)`: the same generated
    (term, type) and the property's outcome (None when it holds)."""
    if name == "uniqueness_mod_zero" and cfg.allow_zero:
        cfg = replace(cfg, allow_zero=False)
    env, term, ty = gen_well_typed(cfg, index)
    return term, ty, PROPERTIES[name](env, term, ty)


# Acceptance 5's own cases (seed 42, size 30): op k checks suite k mod 7 on
# case k, so every case is new and the pool covers each (suite, prelude)
# pair. 700 cases put a pass near 7 s and at least 11 of them, the
# fuel-capped `absurdCo` reductions and the slowest generations, above
# 150 ms, so the tail measures them. Drawing cases from the benchmark's seed
# instead made the runs disagree: about 4% of cases cost 50 ms to 1.4 s and
# take 85% of the time, so a 30 s sample of them moved throughput by 10%
# and the tail by 35% from seed to seed.
FUZZ_CFG = GenConfig(seed=42, size=30, count=1000)
FUZZ_POOL = 700


def fuzz_pool() -> list[Op]:
    return [_fuzz_op(k) for k in range(FUZZ_POOL)]


def _fuzz_op(k: int) -> Op:
    name = SUITES[k % len(SUITES)]
    shape = f"{name} case={k} prelude={PRELUDES[k % len(PRELUDES)]}"
    return Op(name, "", shape, partial(fuzz_case, name, FUZZ_CFG, k),
              lambda out: out[2])


# ------------------------------------------------------------ elab-classes

@dataclass(frozen=True)
class Program:
    family: str
    size: str
    shape: str
    text: str
    types: tuple[str, ...]    # open types the output must declare
    ctors: tuple[str, ...]    # open constructors
    methods: tuple[str, ...]  # open functions
    lets: tuple[str, ...]


# Names a generated program must not reuse: the keywords (`d` + `ata`
# would be `data`) and the prelude's names (`T` + `rue`).
TAKEN = frozenset(KEYWORDS).union(re.findall(r"[A-Za-z_]\w*", prelude_text()))


class Names:
    """Distinct random names for one program, none of them taken."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(TAKEN)

    def __call__(self, stem: str) -> str:
        while True:
            name = stem + "".join(self.rng.choice("abcdefghjkmnpqrstuvwxyz")
                                  for _ in range(3))
            if name not in self.used:
                self.used.add(name)
                return name


def fundep_program(rng: random.Random, ground: int, structural: int,
                   use: str) -> Program:
    """A class with a two-way dependency, `ground` ground instances,
    `structural` instances `F a b => F (S a) (R b)`, and a use site that is
    absent, resolves a dictionary ("nocast"), or types only through an
    improvement cast ("cast")."""
    fresh = Names(rng)
    cls = fresh("F")
    lines = [f"class {cls} t u | t -> u, u -> t;"]
    dets = [("Int" if i == 0 and rng.random() < 0.5 else fresh("D"))
            for i in range(ground)]
    outs = ["Bool"] + [fresh("E") for _ in range(ground - 1)]
    shells = [(("Maybe", "Maybe") if j == 0 and rng.random() < 0.5
               else (fresh("S"), fresh("R")))
              for j in range(structural)]
    datas = [t for t in dets + outs if t not in ("Int", "Bool")]
    lines[:0] = [f"data {t} :: *;" for t in datas]
    lines[:0] = [f"data {t} :: * -> *;" for pair in shells for t in pair
                 if t != "Maybe"]
    ctors = []
    order = list(range(ground))
    rng.shuffle(order)
    for i in order:
        ctor = fresh("G")
        ctors.append(ctor)
        lines.append(f"instance {ctor} : {cls} {dets[i]} {outs[i]};")
    for s, r in shells:
        ctor = fresh("H")
        ctors.append(ctor)
        lines.append(f"instance {ctor} : {cls} a b => {cls} ({s} a) ({r} b);")
    lets = []
    if use == "nocast":
        lets.append(fresh("d"))
        lines.append(f"let {lets[0]} :: {cls} {dets[0]} Bool "
                     f"= (_ :: {cls} {dets[0]} Bool);")
    elif use == "cast":
        lets.append(fresh("f"))
        lines.append(f"let {lets[0]} :: forall t. {cls} {dets[0]} t => t -> t"
                     f" = /\\ t. \\ d :: {cls} {dets[0]} t. not;")
    return Program("fundep_structural", f"n{structural}",
                   f"fundep ground={ground} structural={structural} use={use}",
                   "\n".join(lines) + "\n", (cls,), tuple(ctors),
                   ("fdFwd", "fdBwd"), tuple(lets))


def superclass_program(rng: random.Random, depth: int, types: int) -> Program:
    """A chain of `depth` classes, each the superclass of the next, with an
    instance of every class at each of `types` data types and a use site that
    reaches the root class's method from a dictionary of the last one."""
    fresh = Names(rng)
    stem = fresh("C")
    classes = [f"{stem}{i}" for i in range(depth)]
    tys = [fresh("T") for _ in range(types)]
    lines = [f"data {t} :: *;" for t in tys]
    methods = []
    for i, c in enumerate(classes):
        sup = f"{classes[i - 1]} a => " if i else ""
        lines.append(f"class {sup}{c} a where {{ m{i} :: a -> a -> Bool; }};")
        methods.append(f"m{i}")
        if i:
            methods.append(c[0].lower() + c[1:] + classes[i - 1])
    ctors = []
    for t in tys:
        for i, c in enumerate(classes):
            ctor = fresh("I")
            ctors.append(ctor)
            body = rng.choice(["True", "False"])
            lines.append(
                f"instance {ctor} : {c} {t} where {{ m{i} = "
                f"((\\ x :: {t}. \\ y :: {t}. {body}) "
                f":: {t} -> {t} -> Bool); }};")
    top = classes[-1]
    lines.append(f"let use :: forall a. {top} a => a -> a -> Bool = /\\ a. "
                 f"\\ d :: {top} a. \\ x :: a. \\ y :: a. "
                 f"m0 [a] (_ :: {classes[0]} a) x y;")
    lines.append(f"let dtop :: {top} {tys[0]} = (_ :: {top} {tys[0]});")
    return Program("superclass_chain", f"k{depth}",
                   f"superclass depth={depth} types={types}",
                   "\n".join(lines) + "\n", tuple(classes), tuple(ctors),
                   tuple(methods), ("use", "dtop"))


@dataclass
class ElabOut:
    decls: list
    diags: list
    check_diags: list = None
    printed: str = None
    reparsed: list = None
    report: object = None


def elab_pipeline(ctx: Context, text: str) -> ElabOut:
    """parse_surface -> elaborate_program -> check_program -> print_core ->
    parse_core -> check_hssdi."""
    decls, diags = elaborate_program(parse_surface(text), ctx.prelude)
    if diags:
        return ElabOut(decls, diags)
    _, check_diags = check_program(ctx.prelude, decls)
    printed = print_core(decls)
    return ElabOut(decls, diags, check_diags, printed, parse_core(printed),
                   check_hssdi(decls, ctx.prelude))


def _check_elaborated(out: ElabOut) -> Optional[str]:
    if out.diags:
        return f"rejected: {out.diags[0]}"
    if out.check_diags:
        return f"output does not typecheck: {out.check_diags[0]}"
    if out.reparsed != out.decls:
        return "parse_core(print_core(decls)) != decls"
    flagged = {r.name for r in out.report.functions.values() if not r.ok}
    if any(not name.startswith("absurdCo") for name in flagged):
        return f"analysis flags {sorted(flagged)}; only absurdCo* diverge"
    return None


def _check_program(prog: Program, out: ElabOut) -> Optional[str]:
    bad = _check_elaborated(out)
    if bad:
        return bad
    declared = {kind: {d.name for d in out.decls if isinstance(d, kind)}
                for kind in (OpenTypeDecl, OpenCtorDecl, MethodDecl, LetDecl)}
    for kind, want in ((OpenTypeDecl, prog.types), (OpenCtorDecl, prog.ctors),
                       (MethodDecl, prog.methods), (LetDecl, prog.lets)):
        missing = set(want) - declared[kind]
        if missing:
            return f"no {kind.__name__} for {sorted(missing)}"
    return None


def _check_golden(golden: str, out: ElabOut) -> Optional[str]:
    bad = _check_elaborated(out)
    if bad:
        return bad
    if out.printed != golden:
        return "elaboration differs from the golden .fd file"
    return None


def _check_rejected(out: ElabOut) -> Optional[str]:
    if out.decls or not any(d.code == "fundep-violation" for d in out.diags):
        return "the contradictory instance was not rejected"
    return None


def _run_cli(argv: list[str]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _check_cli(want_code: int, want_out: str, got) -> Optional[str]:
    code, out, err = got
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {err.strip()[:200]}"
    if out != want_out:
        return f"unexpected output: {out[:200]!r}"
    return None


def _analyze_expected(paths: list[str]) -> str:
    """`fdc analyze` lines for the corpus core files: every function passes
    except the diverging absurdCo witness."""
    functions = {
        "superclasses.fd": ["eq", "lt", "ordEq"],
        "fundeps.fd": ["absurdCo", "fdBwd", "fdFwd"],
    }
    lines = []
    for path in paths:
        for fn in functions[os.path.basename(path)]:
            if fn == "absurdCo":
                lines += [f"{path}: {fn}: VIOLATIONS",
                          f"  condition 1: recursive call of 'absurdCo' with "
                          f"evidence size 0 under 0 guard(s)"]
            else:
                lines.append(f"{path}: {fn}: ok")
    return "\n".join(lines) + "\n"


def corpus_ops(ctx: Context) -> list[Op]:
    """The bundled corpus through the library and through `fdc.cli.main`."""
    path = partial(os.path.join, ctx.corpus_dir)
    out = []
    for hsk, fd in (("superclasses.hsk", "superclasses.fd"),
                    ("fundeps.hsk", "fundeps.fd")):
        out.append(Op("corpus", "", f"elaborate {hsk}",
                      partial(elab_pipeline, ctx, corpus_text(hsk)),
                      partial(_check_golden, corpus_text(fd))))
    out.append(Op("corpus", "", "elaborate fundeps_invalid.hsk",
                  partial(elab_pipeline, ctx,
                          corpus_text("fundeps_invalid.hsk")),
                  _check_rejected))
    files = [path(n) for n in ("superclasses.hsk", "fundeps.hsk",
                               "superclasses.fd", "fundeps.fd")]
    out.append(Op("cli", "", "fdc check corpus",
                  partial(_run_cli, ["check", *files]),
                  partial(_check_cli, 0, "".join(f"{f}: ok\n"
                                                 for f in files))))
    out.append(Op("cli", "", "fdc elab corpus",
                  partial(_run_cli, ["elab", *files[:2]]),
                  partial(_check_cli, 0, corpus_text("superclasses.fd")
                          + corpus_text("fundeps.fd"))))
    out.append(Op("cli", "", "fdc analyze corpus",
                  partial(_run_cli, ["analyze", *files[2:]]),
                  partial(_check_cli, 1, _analyze_expected(files[2:]))))
    return out


def _program_op(ctx: Context, prog: Program) -> Op:
    return Op(prog.family, prog.size, prog.shape,
              partial(elab_pipeline, ctx, prog.text),
              partial(_check_program, prog))


# Improvement-cast use sites next to two or more ground instances make
# elaborate_program raise RecursionError at this version (see README.md).
# They run in `known_defects`, outside the timed pool.
def _defective(ground: int, use: str) -> bool:
    return ground >= 2 and use == "cast"


# (ground instances, use site, structural instances) of the timed fundep
# programs. Every use site meets one and two ground instances with 0 and 1
# structural instances; 2 and 3, whose cost grows superlinearly (to about
# 0.5 s), come in three and two programs, so that a pass stays short. The
# programs with one structural instance come twice: with the corpus ops
# they make a run of 15 ops of 90-160 ms, and the median and the tail (the
# 11th slowest) both fall inside it, not at its edge.
FUNDEP_CELLS = [(g, use, s) for g in (1, 2)
                for use in ("absent", "nocast", "cast")
                if not _defective(g, use) for s in (0, 1, 1)]
FUNDEP_CELLS += [(1, "absent", 2), (1, "cast", 2), (2, "nocast", 2),
                 (1, "cast", 3), (2, "absent", 3)]


def elab_pool(ctx: Context, seed: int) -> list[Op]:
    """32 programs, about 4.5 s a pass on a quiet 2-core machine, so that
    a 40 s run gets four or more passes even in a slow stretch."""
    rng = random.Random(f"elab-classes/{seed}")
    ops = [_program_op(ctx, fundep_program(rng, g, s, use))
           for g, use, s in FUNDEP_CELLS]
    ops += [_program_op(ctx, superclass_program(rng, k, types))
            for k in (2, 4, 8) for types in (1, 3)]
    return ops + corpus_ops(ctx)


def known_defects(ctx: Context, seed: int, scratch_dir: str) -> list[Op]:
    """The improvement-cast programs the timed pool leaves out, through the
    library and once through `fdc elab`."""
    rng = random.Random(f"known-defects/{seed}")
    progs = [fundep_program(rng, g, s, "cast") for g in (2, 3) for s in (0, 1)]
    out = [_program_op(ctx, p) for p in progs]
    path = os.path.join(scratch_dir, "defect.hsk")
    with open(path, "w") as fh:
        fh.write(progs[0].text)
    out.append(Op("cli", "", f"fdc elab ({progs[0].shape})",
                  partial(_run_cli, ["elab", path]),
                  lambda got: None if got[0] == 0 else f"exit code {got[0]}"))
    return out


# ------------------------------------------------------------ eval-deep

BOOL = TCon("Bool")


def _bool(b: bool) -> Con:
    return Con("True" if b else "False")


def not_chain(depth: int, leaf: bool):
    term = _bool(leaf)
    for _ in range(depth):
        term = App(Ref("not"), term)
    return term


def xor_chain(bits: list[bool]):
    term = _bool(bits[-1])
    for b in reversed(bits[:-1]):
        term = App(App(Ref("xor"), _bool(b)), term)
    return term


def sym_tower(depth: int):
    term = Trans(Refl(BOOL), Refl(BOOL))
    for _ in range(depth):
        term = Sym(term)
    return term


def _check_value(expected, result) -> Optional[str]:
    if not isinstance(result, Value):
        return f"no value: {result!r:.200}"
    if reference.collapse(result.node) != expected:
        return f"value {result.node!r:.200}, expected {expected!r}"
    return None


def _direct_and_specialized(env: Env, call):
    direct = whnf(env, call)
    spec = specialize(env, call)
    return direct, spec, whnf(env, spec)


def _check_specialized(expected, out) -> Optional[str]:
    direct, spec, via_spec = out
    if not reference.zero_free(spec):
        return "specialized call keeps a guard, zero or reference"
    return _check_value(expected, direct) or _check_value(expected, via_spec)


def _check_terminals(expected, out) -> Optional[str]:
    terminals, exhausted = out
    stray = [t for t in terminals if t != expected and t != ZERO]
    if stray:
        return f"eval_all reached {stray[0]!r:.200}"
    if exhausted and expected not in terminals:
        return "eval_all exhausted without reaching the value"
    return None


# eval_all fuel: `lte` and `eq` exhaust their frontier within it; `f` and
# `fdFwd` never do, so they stop at a small bound.
EVAL_ALL_FUEL = {"lte": 500, "eq": 500, "f": 40, "fdFwd": 40}

# Each cell appears this many times in the pool, with its own inputs. With
# four, the median (between the 34th and 35th of 68) falls in a run of a
# dozen ops of 29-36 ms (`Sym^40`, bounded `eval_all eq`, specialized `f`)
# and the tail (the 11th slowest, after the four `Sym^80`, the four bounded
# `eval_all f` and `eval_all lte True False`) among the four `not^40` ops,
# not at the edge of a cell where one slow run moves it.
EVAL_REPEATS = 4


def _call_inputs(rng: random.Random) -> list[tuple[bool, bool, bool]]:
    """(x, y, dictionary written out) for the four (EVAL_REPEATS) calls of
    one corpus method: every (x, y) pair once and each dictionary form twice,
    in a seeded order, so that every seed gives the same mix. Bounded
    `eval_all` of `lte True False` costs 1.7 times `lte` on the other
    pairs; with the inputs drawn one by one, the number of those ops moved
    the tail by up to 25% from seed to seed."""
    pairs = [(x, y) for x in (True, False) for y in (True, False)]
    forms = [True, True, False, False]
    rng.shuffle(pairs)
    rng.shuffle(forms)
    return [(x, y, explicit) for (x, y), explicit in zip(pairs, forms)]


def _corpus_call(ctx: Context, method: str, x: bool, y: bool,
                 explicit: bool):
    """A corpus method call with the given arguments (`f` takes only `x`,
    `fdFwd` neither) and dictionary form, and its expected value."""
    if method == "lte":
        d = "(OrdBool [Bool] refl(Bool))" if explicit else "dOrdBool"
        text = f"lte [Bool] {d} {_bool(x).name} {_bool(y).name}"
        return ctx.sc_env, text, _bool(reference.CORPUS_CALLS["lte"](x, y))
    if method == "eq":
        d = "(EqBool [Bool] refl(Bool))" if explicit else "dEqBool"
        text = f"eq [Bool] {d} {_bool(x).name} {_bool(y).name}"
        return ctx.sc_env, text, _bool(reference.CORPUS_CALLS["eq"](x, y))
    d = "(FIB [Int] [Bool] refl(Int) refl(Bool))" if explicit else "dFIB"
    if method == "f":
        text = f"f [Bool] {d} {_bool(x).name}"
        return ctx.fd_env, text, _bool(reference.CORPUS_CALLS["f"](x))
    return ctx.fd_env, f"fdFwd [Int] [Bool] [Bool] {d} dFIB", Refl(BOOL)


def eval_pool(ctx: Context, seed: int) -> list[Op]:
    env = ctx.prelude

    def chain_ops(rng, depth):
        leaf = rng.random() < 0.5
        bits = [rng.random() < 0.5 for _ in range(depth)]
        return [
            Op("not_chain", f"d{depth}", f"not^{depth} {leaf}",
               partial(whnf, env, not_chain(depth, leaf)),
               partial(_check_value,
                       _bool(reference.not_chain(depth, leaf)))),
            Op("xor_chain", f"d{depth}", f"xor fold {bits}",
               partial(whnf, env, xor_chain(bits)),
               partial(_check_value, _bool(reference.xor_fold(bits)))),
            Op("sym", f"d{2 * depth}", f"Sym^{2 * depth}(refl;;refl)",
               partial(whnf, env, sym_tower(2 * depth)),
               partial(_check_value, Refl(BOOL))),
        ]

    def call_op(method, *inputs):
        call_env, text, expected = _corpus_call(ctx, method, *inputs)
        return Op("call", "", f"whnf+specialize {text}",
                  partial(_direct_and_specialized, call_env,
                          parse_term(text)),
                  partial(_check_specialized, expected))

    def eval_all_op(method, *inputs):
        call_env, text, expected = _corpus_call(ctx, method, *inputs)
        fuel = EVAL_ALL_FUEL[method]
        return Op("eval_all", "", f"eval_all fuel={fuel} {text}",
                  partial(eval_all, call_env, parse_term(text), fuel),
                  partial(_check_terminals, expected))

    rng = random.Random(f"eval-deep/{seed}")
    calls = {m: _call_inputs(rng) for m in EVAL_ALL_FUEL}
    evals = {m: _call_inputs(rng) for m in EVAL_ALL_FUEL}
    ops = []
    for k in range(EVAL_REPEATS):
        ops += [*chain_ops(rng, 10), *chain_ops(rng, 20), *chain_ops(rng, 40)]
        ops += [call_op(m, *calls[m][k]) for m in EVAL_ALL_FUEL]
        ops += [eval_all_op(m, *evals[m][k]) for m in EVAL_ALL_FUEL]
    return ops
