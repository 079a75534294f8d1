"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each fdc layer with
wrappers in the namespaces that import them: the other fdc modules and the
benchmark's `workloads` module. The defining module keeps the original, so a
layer's calls to itself are not spans; a span marks a call that crosses a
layer boundary. Methods (`Env` lookups, `Resolver.resolve`/`synth`) are
wrapped on the class and skip calls made from their own module.

Spans (name, start, end, parent, op id) are kept in memory, up to a cap, and
written out by `write_spans`. Aggregates are exact whatever the cap: a
layer's self time is its span's duration minus the time its child spans
cover. Work the wrappers do after a call returns (counting nodes or closed
terms) is charged to no layer.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

from fdc import propcheck
from fdc.reduction import OutOfFuel
from fdc.subst import is_closed
from fdc.syntax import subnodes

SPAN_CAP = 200_000

# (defining module, function, span name)
FUNCTIONS = (
    ("fdc.propcheck", "gen_well_typed", "propcheck.gen_well_typed"),
    ("fdc.subst", "apply", "subst.apply"),
    ("fdc.subst", "shift", "subst.shift"),
    ("fdc.subst", "instantiate", "subst.instantiate"),
    ("fdc.reduction", "whnf", "reduction.whnf"),
    ("fdc.reduction", "step_all", "reduction.step_all"),
    ("fdc.reduction", "eval_all", "reduction.eval_all"),
    ("fdc.typecheck", "check_term", "typecheck.check_term"),
    ("fdc.typecheck", "infer_term", "typecheck.infer_term"),
    ("fdc.typecheck", "check_decl", "typecheck.check_decl"),
    ("fdc.typecheck", "check_program", "typecheck.check_program"),
    ("fdc.elaborate", "elaborate_program", "elaborate.elaborate_program"),
    ("fdc.surface", "parse_surface", "surface.parse_surface"),
    ("fdc.parser", "parse_core", "parser.parse_core"),
    ("fdc.printer", "print_core", "printer.print_core"),
    ("fdc.cli", "main", "cli.main"),
    ("fdc.analysis", "specialize", "analysis.specialize"),
    ("fdc.analysis", "check_hssdi", "analysis.check_hssdi"),
)

# (defining module, class, methods, span name)
METHODS = (
    ("fdc.syntax", "Env", ("type_sig", "ctor_sig", "method_sig", "let_sig",
                           "let_def", "instance_defs"), "syntax.env_lookup"),
    ("fdc.synthesis", "Resolver", ("resolve",), "synthesis.resolve"),
    ("fdc.synthesis", "Resolver", ("synth",), "synthesis.synth"),
)

# Spans whose self time is summed into one layer figure.
SUBST_SPANS = ("subst.apply", "subst.shift", "subst.instantiate")

SPAN_NAMES = tuple(name for *_, name in FUNCTIONS + METHODS) + (
    "propcheck.property",)


class Tracer:
    def __init__(self, clients: list):
        self.clients = clients  # extra namespaces that import fdc names
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = -1
        self.undo: list = []

    # -- spans

    def enter(self, name: str) -> list:
        frame = [self.next_id, name, 0.0, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.op_id))

    def uncharged(self, start: float) -> None:
        """Time since `start` was bookkeeping: hide it from the caller."""
        spent = perf_counter() - start
        if self.stack:
            self.stack[-1][3] += spent

    # -- wrappers

    def _wrap(self, name: str, fn, after=None, skip_module=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if (skip_module is not None and
                    sys._getframe(1).f_globals.get("__name__") == skip_module):
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.leave(frame)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer.leave(frame)
            if after is not None:
                start = perf_counter()
                after(args, kwargs, result)
                tracer.uncharged(start)
            return result
        return traced

    def _after(self, name: str):
        counts = self.counts
        if name == "propcheck.gen_well_typed":
            def after(args, kwargs, result):
                counts["propcheck.gen.nodes"] += sum(
                    1 for _ in subnodes(result[1]))
        elif name == "subst.shift":
            def after(args, kwargs, result):
                counts["subst.shift.closed"] += is_closed(args[0])
        elif name == "reduction.whnf":
            def after(args, kwargs, result):
                counts["reduction.whnf.out_of_fuel"] += isinstance(
                    result, OutOfFuel)
        elif name == "reduction.step_all":
            def after(args, kwargs, result):
                counts["reduction.step_all.successors"] += len(result)
        elif name == "syntax.env_lookup":
            def after(args, kwargs, result):
                counts["syntax.env_lookup.entries_scanned"] += _scanned(
                    args[0].entries, result)
        elif name == "parser.parse_core":
            def after(args, kwargs, result):
                counts["parser.parse_core.bytes"] += len(args[0])
        elif name == "printer.print_core":
            def after(args, kwargs, result):
                counts["printer.print_core.bytes"] += len(result)
        else:
            after = None
        return after

    def _count_steps(self, fn):
        """Count `whnf` steps through its own trace hook, keeping any hook
        the caller passed."""
        counts = self.counts

        @wraps(fn)
        def counted(env, m, fuel=None, trace=None):
            def hook(tag, node):
                counts["reduction.whnf.steps"] += 1
                if trace is not None:
                    trace(tag, node)
            if fuel is None:
                return fn(env, m, trace=hook)
            return fn(env, m, fuel, hook)
        return counted

    def install(self) -> None:
        for modname, attr, name in FUNCTIONS:
            owner = sys.modules[modname]
            orig = getattr(owner, attr)
            inner = self._count_steps(orig) if attr == "whnf" else orig
            self._rebind(owner, orig, self._wrap(name, inner,
                                                 self._after(name)))
        for modname, clsname, methods, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for meth in methods:
                orig = getattr(cls, meth)
                setattr(cls, meth, self._wrap(name, orig, self._after(name),
                                              skip_module=modname))
                self.undo.append((cls, meth, orig))
        resolver = sys.modules["fdc.synthesis"].Resolver
        orig_scope = resolver.scope_entries
        counts = self.counts

        @wraps(orig_scope)
        def scope_entries(*args, **kwargs):
            counts["synthesis.scope_entries.calls"] += 1
            return orig_scope(*args, **kwargs)
        resolver.scope_entries = scope_entries
        self.undo.append((resolver, "scope_entries", orig_scope))
        for suite, prop in list(propcheck.PROPERTIES.items()):
            propcheck.PROPERTIES[suite] = self._wrap("propcheck.property",
                                                     prop)
            self.undo.append((propcheck.PROPERTIES, suite, prop))

    def _rebind(self, owner, orig, wrapped) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "fdc" or n.startswith("fdc.")) and m is not owner]
        for mod in modules + self.clients:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self.undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self.undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self.undo.clear()

    # -- results

    def metrics(self, passes: int = 1) -> dict[str, float]:
        """Counts and self times per pass over the pool; ratios as they
        are."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        out["subst.self_s"] = sum(self_s[n] for n in SUBST_SPANS) / passes
        out["subst.shift.closed_ratio"] = _ratio(c["subst.shift.closed"],
                                                 calls["subst.shift"])
        for key in ("propcheck.gen.nodes", "syntax.env_lookup.entries_scanned",
                    "reduction.whnf.steps", "reduction.whnf.out_of_fuel",
                    "reduction.step_all.successors",
                    "synthesis.scope_entries.calls"):
            out[key] = c[key] / passes
        out["reduction.whnf.us_per_step"] = 1e6 * _ratio(
            self.total_s["reduction.whnf"], c["reduction.whnf.steps"])
        out["synthesis.synth.failed"] = c[
            "synthesis.synth.raised.SynthError"] / passes
        out["elaborate.output_bytes"] = c["printer.print_core.bytes"] / passes
        out["parser.bytes_per_s"] = _ratio(c["parser.parse_core.bytes"],
                                           self.total_s["parser.parse_core"])
        out["trace.spans"] = self.next_id / passes
        return out

    def write_spans(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.spans),
                                 "spans_total": self.next_id}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _scanned(entries: tuple, result) -> int:
    """Entries an Env lookup walked: the name lookups scan from the end and
    stop at their hit, `instance_defs` scans everything."""
    if result is None or isinstance(result, list):
        return len(entries)
    for back, entry in enumerate(reversed(entries)):
        if entry is result:
            return back + 1
    return len(entries)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
