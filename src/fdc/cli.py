"""Command-line driver: parse, check, elaborate, evaluate, specialize,
analyze, and fuzz over `.fd` core files and `.hsk` surface files.

Exit codes: 0 on success, 1 when diagnostics are reported (an input file
that is not UTF-8 text is a `decode-error` diagnostic, input nested too
deeply to process a `depth-limit` one, and any `CheckError` that reaches
`main` is reported as its diagnostic), 2 on usage errors. The prelude
(`FDC_PRELUDE`, or the bundled one) is loaded once per call, and its faults
are reported under its own name.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .analysis import check_no_zero_syntactic, hssdi_report, specialize
from .corpus import check_prelude, prelude_name
from .elaborate import ElabOptions, Elaborator, elaborate_program
from .parser import ParseError, parse_core_with_spans, parse_term
from .printer import print_core, print_term
from .propcheck import ALL_PROPERTIES, PRELUDES, GenConfig, run_properties
from .reduction import (
    Diverges, OutOfFuel, StuckResult, Value, WhnfResult, ZeroResult, eval_all,
    whnf, DEFAULT_FUEL,
)
from .surface import parse_surface
from .syntax import DataDecl, Decl, Env, InstanceDecl, Node, OpenTypeDecl
from .typecheck import CheckError, Diagnostic, check_program, infer_term


def _load_env(path: str, options: ElabOptions, base: Env,
              ) -> tuple[Env, list[Diagnostic]]:
    """Parse a .fd or .hsk file and check it against the prelude `base`; a
    .hsk file is checked as it is elaborated. A .fd file that redeclares a
    prelude name (the prelude itself, or an edited copy of it) is checked
    from the builtin environment."""
    text = _read_source(path)
    if path.endswith(".hsk"):
        elab = Elaborator(base, options)
        diags = elab.run(parse_surface(text))
        return elab.env, diags
    decls, spans = parse_core_with_spans(text)
    if any(_redeclares(base, d) for d in decls):
        base = Env()
    return check_program(base, decls, spans)


def _redeclares(env: Env, d: Decl) -> bool:
    """Whether `d` declares a name that `env` already declares."""
    if isinstance(d, (DataDecl, OpenTypeDecl)):
        return env.type_name_taken(d.name)
    return not isinstance(d, InstanceDecl) and env.term_name_taken(d.name)


def _report(diags: list[Diagnostic], as_json: bool, path: str = "") -> None:
    for d in diags:
        if as_json:
            rec = d.to_record()
            if path:
                rec["file"] = path
            print(json.dumps(rec))
        else:
            prefix = f"{path}: " if path else ""
            print(f"{prefix}{d}", file=sys.stderr)


def _read_source(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# An input that does not decode as UTF-8 or does not parse.
_BAD_INPUT = (ParseError, UnicodeDecodeError)


def _input_failure(e: ParseError | UnicodeDecodeError | CheckError,
                   as_json: bool, path: str) -> int:
    if isinstance(e, CheckError):
        diag = e.diagnostic
    elif isinstance(e, UnicodeDecodeError):
        diag = Diagnostic("decode-error", f"not UTF-8 text: {e.reason} at "
                          f"byte {e.start}")
    else:
        diag = Diagnostic("parse-error", e.message, span=(e.line, e.col))
    _report([diag], as_json, path)
    return 1


def _load_or_report(path: str, args) -> Optional[Env]:
    """The environment of `path` over the prelude, or None after reporting
    its faults under `path`."""
    try:
        env, diags = _load_env(path, _elab_options(args), args.prelude_env)
    except _BAD_INPUT as e:
        _input_failure(e, args.json, path)
        return None
    if diags:
        _report(diags, args.json, path)
        return None
    return env


def _expr_or_report(env: Env, args, then=None) -> Optional[Node]:
    """`--expr` parsed and inferred in `env`, then passed through `then`;
    None after reporting a fault under `<expr>`."""
    try:
        expr = parse_term(args.expr)
        infer_term(env, expr)
        return expr if then is None else then(env, expr)
    except (ParseError, CheckError) as e:
        _input_failure(e, args.json, "<expr>")
        return None


def cmd_check(args) -> int:
    status = 0
    for path in args.files:
        if _load_or_report(path, args) is None:
            status = 1
        elif not args.json:
            print(f"{path}: ok")
    return status


def cmd_elab(args) -> int:
    status = 0
    for path in args.files:
        try:
            program = parse_surface(_read_source(path))
        except _BAD_INPUT as e:
            status = max(status, _input_failure(e, args.json, path))
            continue
        decls, diags = elaborate_program(program, args.prelude_env,
                                         _elab_options(args))
        if diags:
            _report(diags, args.json, path)
            status = 1
            continue
        sys.stdout.write(print_core(decls))
    return status


def cmd_eval(args) -> int:
    env = _load_or_report(args.file, args)
    expr = None if env is None else _expr_or_report(env, args)
    if expr is None:
        return 1
    if args.all:
        terminals, exhausted = eval_all(env, expr, args.fuel)
        for t in terminals:
            line = print_term(t)
            print(json.dumps({"result": line}) if args.json else line)
        if not exhausted:
            _report([Diagnostic("out-of-fuel",
                                "enumeration stopped at the fuel limit")],
                    args.json)
        return 0
    trace = None
    if args.trace:
        def trace(tag: str, node) -> None:
            print(f"{tag}: {print_term(node)}", file=sys.stderr)
    out = _whnf_record(whnf(env, expr, args.fuel, trace))
    print(json.dumps(out) if args.json else out["result"])
    if out["kind"] == "diverges" and not args.json:
        _report([Diagnostic("diverges", f"the term recurs every "
                                        f"{out['period']} steps")], False)
    return 0 if out["kind"] in ("value", "zero") else 1


def _whnf_record(result: WhnfResult) -> dict:
    """The `fdc eval` record of each `whnf` outcome."""
    match result:
        case Value(node):
            return {"kind": "value", "result": print_term(node)}
        case ZeroResult():
            return {"kind": "zero", "result": "0"}
        case OutOfFuel(node):
            return {"kind": "out-of-fuel", "result": print_term(node)}
        case StuckResult(node):
            return {"kind": "stuck", "result": print_term(node)}
        case Diverges(node, period):
            return {"kind": "diverges", "period": period,
                    "result": print_term(node)}
    raise TypeError(f"no eval record for {result!r}")


def cmd_specialize(args) -> int:
    env = _load_or_report(args.file, args)
    result = None if env is None else _expr_or_report(env, args, specialize)
    if result is None:
        return 1
    line = print_term(result)
    if args.json:
        print(json.dumps({"result": line,
                          "zero_free": check_no_zero_syntactic(result)}))
    else:
        print(line)
    return 0


def cmd_analyze(args) -> int:
    status = 0
    for path in args.files:
        env = _load_or_report(path, args)
        if env is None:
            status = 1
            continue
        report = hssdi_report(env)
        for rec in report.to_records():
            if args.json:
                rec["file"] = path
                print(json.dumps(rec))
            else:
                flag = "ok" if rec["ok"] else "VIOLATIONS"
                print(f"{path}: {rec['function']}: {flag}")
                for v in rec["condition1"]:
                    print(f"  condition 1: {v}")
                for v in rec["condition2"]:
                    print(f"  condition 2: {v}")
                for t in rec["condition3_missing"]:
                    print(f"  condition 3: no instance covers "
                          f"({', '.join(t)})")
        if not report.ok:
            status = 1
    return status


def cmd_fuzz(args) -> int:
    names = ALL_PROPERTIES if args.prop == "all" else (args.prop,)
    for name in names:
        if name not in ALL_PROPERTIES:
            print(f"unknown property {name!r}; choose from "
                  f"{', '.join(ALL_PROPERTIES)}", file=sys.stderr)
            return 2
    cfg = GenConfig(seed=args.seed, size=args.size, count=args.count,
                    prelude=args.prelude)
    status = 0
    for result in run_properties(names, cfg):
        if args.json:
            print(json.dumps({"property": result.name, "cases": result.cases,
                              "ok": result.ok,
                              "counterexample": result.counterexample,
                              "gen_s": round(result.gen_s, 6),
                              "check_s": round(result.check_s, 6)}))
        else:
            print(result)
        if not result.ok:
            status = 1
    return status


def _non_negative(text: str) -> int:
    """An argparse type: a decimal integer that is at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _elab_options(args) -> ElabOptions:
    return ElabOptions(overlap=args.overlap, absurd=args.absurd,
                       synth_depth=args.synth_depth,
                       resolve_depth=args.resolve_depth)


def _add_common(p: argparse.ArgumentParser) -> None:
    """`--json` and the elaboration options, defaulting to `ElabOptions`'s."""
    default = ElabOptions()
    p.add_argument("--json", action="store_true",
                   help="line-delimited JSON records")
    p.add_argument("--overlap", choices=("reject", "first"),
                   default=default.overlap,
                   help="policy when several instances satisfy a goal")
    p.add_argument("--absurd", choices=("diverge", "omit"),
                   default=default.absurd,
                   help="body for unreachable dependency branches")
    p.add_argument("--synth-depth", type=_non_negative,
                   default=default.synth_depth, dest="synth_depth")
    p.add_argument("--resolve-depth", type=_non_negative,
                   default=default.resolve_depth, dest="resolve_depth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdc",
        description="core-calculus checker, evaluator, and type-class "
                    "elaborator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck .fd / elaborate-check .hsk")
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("elab", help="elaborate surface files to core text")
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(fn=cmd_elab)

    p = sub.add_parser("eval", help="evaluate an expression in a file's scope")
    p.add_argument("file")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--det", action="store_true", default=True,
                       help="deterministic strategy (default)")
    group.add_argument("--all", action="store_true",
                       help="breadth-first enumeration of all outcomes")
    p.add_argument("--trace", action="store_true",
                   help="print each step as rule-tag: term")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("specialize",
                       help="eliminate guards, zeros, and open functions "
                            "from a call site")
    p.add_argument("file")
    p.add_argument("-e", "--expr", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_specialize)

    p = sub.add_parser("analyze", help="statically-determined-instance "
                                       "report")
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("fuzz", help="run a metatheory property suite")
    p.add_argument("--prop", default="all",
                   help=f"one of {', '.join(ALL_PROPERTIES)}, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_non_negative, default=200)
    p.add_argument("--size", type=_non_negative, default=30)
    p.add_argument("--prelude", choices=PRELUDES, default=None,
                   help="restrict generation to one bundled prelude")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fuzz)
    return parser


def _load_prelude(as_json: bool) -> Optional[Env]:
    """The checked prelude, or None after reporting its faults under its
    own name."""
    try:
        env, diags = check_prelude()
    except _BAD_INPUT as e:
        _input_failure(e, as_json, prelude_name())
        return None
    if diags:
        _report(diags, as_json, prelude_name())
        return None
    return env


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.prelude_env = _load_prelude(args.json)
        if args.prelude_env is None:
            return 1
        return args.fn(args)
    except OSError as e:
        print(f"fdc: {e}", file=sys.stderr)
        return 2
    except CheckError as e:
        # a failure outside the inputs a command reports on, such as a
        # bundled fuzz prelude that does not elaborate over `FDC_PRELUDE`
        return _input_failure(e, args.json, "")
    except RecursionError:
        # the parser, checker, elaborator and printer recurse on nesting
        _report([Diagnostic("depth-limit",
                            "recursion limit reached: input nested too "
                            "deeply to process")], args.json)
        return 1


if __name__ == "__main__":
    sys.exit(main())
