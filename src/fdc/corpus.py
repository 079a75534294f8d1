"""Bundled prelude and golden example files."""

from __future__ import annotations

import os
from dataclasses import replace
from importlib import resources

from .parser import parse_core_with_spans
from .syntax import Env
from .typecheck import CheckError, Diagnostic, check_program

PRELUDE_ENV_VAR = "FDC_PRELUDE"


def corpus_text(name: str) -> str:
    return (resources.files(__package__) / "corpus" / name).read_text()


def read_source(path: str) -> str:
    """The UTF-8 text of `path` without one leading byte-order mark; a
    decode error counts its bytes from the start of the file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text[1:] if text.startswith("\ufeff") else text


def prelude_text() -> str:
    override = os.environ.get(PRELUDE_ENV_VAR)
    if override:
        return read_source(override)
    return corpus_text("prelude.fd")


def prelude_name() -> str:
    """The prelude's path when `FDC_PRELUDE` names one, else its file name."""
    return os.environ.get(PRELUDE_ENV_VAR) or "prelude.fd"


def check_prelude() -> tuple[Env, list[Diagnostic]]:
    """Parse and check the prelude; a fault in its text raises."""
    decls, spans = parse_core_with_spans(prelude_text())
    return check_program(Env(), decls, spans)


def prelude_env() -> Env:
    """Parse and check the prelude; it must be diagnostic-free."""
    env, diags = check_prelude()
    require_clean(f"prelude {prelude_name()!r}", diags)
    return env


def require_clean(what: str, diags: list[Diagnostic]) -> None:
    """Raise the first of `diags`, if any, as a `CheckError` whose message
    names `what`."""
    if diags:
        d = diags[0]
        raise CheckError(replace(d, message=f"{what}: {d.message}"))
