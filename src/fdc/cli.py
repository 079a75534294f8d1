"""Command-line driver: parse, check, elaborate, evaluate, specialize,
analyze, and fuzz over `.fd` core files and `.hsk` surface files.

Exit codes: 0 on success, 1 when diagnostics are reported (an input file
that is not UTF-8 text is a `decode-error` diagnostic, input nested too
deeply to process a `depth-limit` one), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .analysis import (
    AnalysisError, check_no_zero_syntactic, hssdi_report, specialize,
)
from .corpus import prelude_env
from .elaborate import ElabOptions, elaborate_program
from .parser import ParseError, parse_core_with_spans, parse_term
from .printer import print_core, print_term
from .propcheck import ALL_PROPERTIES, PRELUDES, GenConfig, run_properties
from .reduction import (
    OutOfFuel, StuckResult, Value, ZeroResult, eval_all, whnf, DEFAULT_FUEL,
)
from .surface import parse_surface
from .syntax import DataDecl, Decl, Env, InstanceDecl, OpenTypeDecl
from .typecheck import CheckError, Diagnostic, check_program, infer_term


def _load_env_and_decls(path: str, options: ElabOptions,
                        ) -> tuple[Env, list, list[Diagnostic]]:
    """Parse a .fd or .hsk file and check it against the prelude; a .fd
    file that redeclares a prelude name (the prelude itself, or an edited
    copy of it) is checked from the builtin environment."""
    text = _read_source(path)
    base = prelude_env()
    spans = None
    if path.endswith(".hsk"):
        decls, diags = elaborate_program(parse_surface(text), base, options)
        if diags:
            return base, [], diags
    else:
        decls, spans = parse_core_with_spans(text)
        if any(_redeclares(base, d) for d in decls):
            base = Env()
    env, diags = check_program(base, decls, spans)
    return env, decls, diags


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


def _input_failure(e: ParseError | UnicodeDecodeError, as_json: bool,
                   path: str) -> int:
    if isinstance(e, UnicodeDecodeError):
        diag = Diagnostic("decode-error", f"not UTF-8 text: {e.reason} at "
                          f"byte {e.start}")
    else:
        diag = Diagnostic("parse-error", e.message, span=(e.line, e.col))
    _report([diag], as_json, path)
    return 1


def cmd_check(args) -> int:
    status = 0
    for path in args.files:
        try:
            _, _, diags = _load_env_and_decls(path, _elab_options(args))
        except _BAD_INPUT as e:
            status = max(status, _input_failure(e, args.json, path))
            continue
        if diags:
            _report(diags, args.json, path)
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
        decls, diags = elaborate_program(program, prelude_env(),
                                         _elab_options(args))
        if diags:
            _report(diags, args.json, path)
            status = 1
            continue
        sys.stdout.write(print_core(decls))
    return status


def cmd_eval(args) -> int:
    try:
        env, _, diags = _load_env_and_decls(args.file, _elab_options(args))
    except _BAD_INPUT as e:
        return _input_failure(e, args.json, args.file)
    if diags:
        _report(diags, args.json, args.file)
        return 1
    try:
        expr = parse_term(args.expr)
        infer_term(env, expr)
    except ParseError as e:
        return _input_failure(e, args.json, "<expr>")
    except CheckError as e:
        _report([e.diagnostic], args.json, "<expr>")
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
    result = whnf(env, expr, args.fuel, trace)
    match result:
        case Value(node):
            out = {"kind": "value", "result": print_term(node)}
        case ZeroResult():
            out = {"kind": "zero", "result": "0"}
        case OutOfFuel(node):
            out = {"kind": "out-of-fuel", "result": print_term(node)}
        case StuckResult(node):
            out = {"kind": "stuck", "result": print_term(node)}
    print(json.dumps(out) if args.json else out["result"])
    return 0 if out["kind"] in ("value", "zero") else 1


def cmd_specialize(args) -> int:
    try:
        env, _, diags = _load_env_and_decls(args.file, _elab_options(args))
    except _BAD_INPUT as e:
        return _input_failure(e, args.json, args.file)
    if diags:
        _report(diags, args.json, args.file)
        return 1
    try:
        expr = parse_term(args.expr)
        infer_term(env, expr)
        result = specialize(env, expr)
    except ParseError as e:
        return _input_failure(e, args.json, "<expr>")
    except (CheckError, AnalysisError) as e:
        _report([e.diagnostic], args.json, "<expr>")
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
        try:
            env, _, diags = _load_env_and_decls(path, _elab_options(args))
        except _BAD_INPUT as e:
            status = max(status, _input_failure(e, args.json, path))
            continue
        if diags:
            _report(diags, args.json, path)
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
                              "counterexample": result.counterexample}))
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
    p.add_argument("--synth-depth", type=int, default=default.synth_depth,
                   dest="synth_depth")
    p.add_argument("--resolve-depth", type=int,
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


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(f"fdc: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser, checker, elaborator and printer recurse on nesting
        _report([Diagnostic("depth-limit",
                            "recursion limit reached: input nested too "
                            "deeply to process")], args.json)
        return 1


if __name__ == "__main__":
    sys.exit(main())
