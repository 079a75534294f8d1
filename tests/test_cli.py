import json
import os
import random
import subprocess
import sys

import pytest

from fdc.cli import main
from fdc.corpus import corpus_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(name):
    import fdc
    return os.path.join(os.path.dirname(fdc.__file__), "corpus", name)


def checkout_env():
    """The environment with the imported `fdc`'s source root on
    PYTHONPATH, so that a child `python -m fdc.cli` imports the same code."""
    import fdc
    src = os.path.dirname(os.path.dirname(fdc.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_check_ok(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("superclasses.fd"))
    assert code == 0
    assert "ok" in out


def test_check_broken_exits_one(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("broken.fd"))
    assert code == 1
    assert "type-mismatch" in err


def test_check_broken_json(capsys):
    code, out, err = run_cli(capsys, "check", "--json",
                             corpus_path("broken.fd"))
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records and records[0]["code"] == "type-mismatch"
    # the diagnostic is positioned at the failing declaration
    assert records[0]["line"] == 2 and records[0]["col"] == 1


def test_elab_golden_byte_identical(capsys):
    for pair in (("superclasses.hsk", "superclasses.fd"),
                 ("fundeps.hsk", "fundeps.fd")):
        code, out, err = run_cli(capsys, "elab", corpus_path(pair[0]))
        assert code == 0
        assert out == corpus_text(pair[1])


def test_elab_invalid_fundep_exits_one(capsys):
    code, out, err = run_cli(capsys, "elab",
                             corpus_path("fundeps_invalid.hsk"))
    assert code == 1
    assert out == ""
    assert "fundep-violation" in err


def test_eval_lte(capsys):
    code, out, err = run_cli(capsys, "eval",
                             corpus_path("superclasses.fd"),
                             "-e", "lte [Bool] dOrdBool False True")
    assert code == 0
    assert out.strip() == "True"


def test_eval_lte_truth_table(capsys):
    table = {("False", "False"): "True", ("False", "True"): "True",
             ("True", "False"): "False", ("True", "True"): "True"}
    for (a, b), want in table.items():
        code, out, _ = run_cli(capsys, "eval",
                               corpus_path("superclasses.fd"),
                               "-e", f"lte [Bool] dOrdBool {a} {b}")
        assert code == 0 and out.strip() == want, (a, b, out)


def test_eval_surface_file_directly(capsys):
    code, out, err = run_cli(capsys, "eval",
                             corpus_path("fundeps.hsk"),
                             "-e", "f [Bool] dFIB True")
    assert code == 0
    assert out.strip() == "False"


def test_eval_json_and_fuel(capsys):
    code, out, err = run_cli(capsys, "eval", corpus_path("fundeps.fd"),
                             "-e", "absurdCo [Bool] [Int]", "--fuel", "40",
                             "--json")
    assert code == 1
    rec = json.loads(out)
    assert rec["kind"] == "out-of-fuel"


def test_eval_all_mode(capsys):
    code, out, err = run_cli(capsys, "eval", corpus_path("superclasses.fd"),
                             "-e", "not True", "--all")
    assert code == 0
    assert "False" in out


def test_eval_trace(capsys):
    code, out, err = run_cli(capsys, "eval", corpus_path("superclasses.fd"),
                             "-e", "not True", "--trace")
    assert code == 0
    assert "β_let" in err and out.strip() == "False"


def test_eval_ill_typed_expression(capsys):
    code, out, err = run_cli(capsys, "eval", corpus_path("superclasses.fd"),
                             "-e", "lte [Bool] True")
    assert code == 1


def test_specialize_command(capsys):
    code, out, err = run_cli(capsys, "specialize",
                             corpus_path("superclasses.fd"),
                             "-e", "lte [Bool] dOrdBool False True",
                             "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["zero_free"] is True


def test_analyze_command(capsys):
    code, out, err = run_cli(capsys, "analyze",
                             corpus_path("superclasses.fd"))
    assert code == 0
    assert "eq: ok" in out and "ordEq: ok" in out


def test_analyze_json_records(capsys):
    code, out, err = run_cli(capsys, "analyze", "--json",
                             corpus_path("fundeps.fd"))
    assert code == 1  # the diverging coercion is reported
    records = [json.loads(line) for line in out.splitlines()]
    by_name = {r["function"]: r for r in records}
    assert by_name["fdFwd"]["ok"] and by_name["fdBwd"]["ok"]
    assert not by_name["absurdCo"]["ok"]


def test_fuzz_command(capsys):
    code, out, err = run_cli(capsys, "fuzz", "--prop", "progress",
                             "--seed", "5", "--count", "40", "--size", "15")
    assert code == 0
    assert "pass" in out


def test_fuzz_unknown_property(capsys):
    code, out, err = run_cli(capsys, "fuzz", "--prop", "nope")
    assert code == 2


@pytest.mark.parametrize("flag", ["--count", "--size"])
def test_fuzz_negative_count_or_size_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--prop", "progress", flag, "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least 0, got -3" in captured.err


def test_fuzz_prelude_choices_are_the_bundled_preludes(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--prop", "progress", "--count",
                           "0", "--prelude", "fundep")
    assert (code, out) == (0, "progress: pass (0 cases)\n")
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--prelude", "nope"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "fdc.cli", "frobnicate"],
        capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fdc.cli", "eval",
         corpus_path("superclasses.fd"), "-e", "xor True False"],
        capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "True"


def test_prelude_env_var_override(tmp_path, capsys, monkeypatch):
    alt = tmp_path / "alt.fd"
    alt.write_text("data B2 : *;\nctor Yes : B2;\n")
    empty = tmp_path / "empty.fd"
    empty.write_text("-- nothing here\n")
    monkeypatch.setenv("FDC_PRELUDE", str(alt))
    code, out, err = run_cli(capsys, "eval", str(empty), "-e", "Yes")
    assert code == 0 and out.strip() == "Yes"


def test_eval_lazy_constructor_spine(capsys):
    code, out, err = run_cli(capsys, "eval", corpus_path("maybe.fd"),
                             "-e", "mapMaybe [Bool] [Bool] not "
                                   "(Just [Bool] True)")
    assert code == 0
    # lazy: the argument under the constructor stays unevaluated
    assert out.strip() == "Just [Bool] (not True)"
    code, out, err = run_cli(capsys, "eval", corpus_path("maybe.fd"),
                             "-e", "orElse [Bool] (Nothing [Bool]) False")
    assert code == 0 and out.strip() == "False"


def test_check_accepts_surface_files(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("fundeps.hsk"))
    assert code == 0
    code, out, err = run_cli(capsys, "check",
                             corpus_path("fundeps_invalid.hsk"))
    assert code == 1


def test_check_prelude_itself(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("prelude.fd"))
    assert code == 0


def test_check_edited_prelude_copy(tmp_path, capsys):
    # a file that redeclares prelude names is checked as a prelude, by
    # `analyze` as by `check`
    commented = tmp_path / "commented.fd"
    commented.write_text(corpus_text("prelude.fd") + "-- a comment\n")
    broken = tmp_path / "broken.fd"
    broken.write_text(corpus_text("prelude.fd") + "ctor MkFoo : Bar;\n")
    for command in ("check", "analyze"):
        code, out, err = run_cli(capsys, command, str(commented))
        assert code == 0, command
        code, out, err = run_cli(capsys, command, "--json", str(broken))
        assert code == 1, command
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["code"] for r in records] == ["unbound-con"], command
        assert "line" in records[0], command


def test_eval_deep_expression_is_a_depth_limit_diagnostic(capsys):
    expr = "not (" * 150 + "True" + ")" * 150
    path = corpus_path("superclasses.fd")
    code, out, err = run_cli(capsys, "eval", path, "-e", expr)
    assert code == 1
    assert "depth-limit" in err and "Traceback" not in err
    code, out, err = run_cli(capsys, "eval", "--json", path, "-e", expr)
    assert code == 1
    assert json.loads(out.splitlines()[-1])["code"] == "depth-limit"


def test_seeded_corpus_edits_never_crash(tmp_path, capsys):
    """Single-character deletions, insertions and replacements across the
    bundled corpus files each end in an exit code; no exception escapes."""
    corpus = os.path.dirname(corpus_path("prelude.fd"))
    names = sorted(n for n in os.listdir(corpus)
                   if n.endswith((".fd", ".hsk")))
    assert len(names) == 8
    rng = random.Random(20250)
    alphabet = "()[]{};:.,|~<>=-+*@/\\ \n0aAzK_'#"
    for i in range(152):
        name = names[i % len(names)]
        text = corpus_text(name)
        pos = rng.randrange(len(text))
        op = rng.choice(("delete", "insert", "replace"))
        ch = rng.choice(alphabet)
        edited = {"delete": text[:pos] + text[pos + 1:],
                  "insert": text[:pos] + ch + text[pos:],
                  "replace": text[:pos] + ch + text[pos + 1:]}[op]
        path = tmp_path / name
        path.write_text(edited)
        command = "elab" if name.endswith(".hsk") else "check"
        code = main([command, str(path)])
        capsys.readouterr()
        assert code in (0, 1, 2), (name, op, pos, ch, code)


def test_undecodable_input_is_a_decode_error(tmp_path, capsys):
    bad = tmp_path / "bad.hsk"
    bad.write_bytes(b"\xff" + corpus_text("superclasses.hsk").encode())
    for command in ("check", "elab"):
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 1, command
        assert err.startswith(f"{bad}: decode-error: ") and out == ""
        assert "Traceback" not in err
    code, out, err = run_cli(capsys, "check", "--json", str(bad))
    assert code == 1
    record = json.loads(out)
    assert record["code"] == "decode-error" and record["file"] == str(bad)
    # a multi-file check reports the bad file and goes on to the next one
    good = corpus_path("superclasses.hsk")
    code, out, err = run_cli(capsys, "check", str(bad), good, str(bad))
    assert code == 1
    assert out == f"{good}: ok\n"
    assert err.count("decode-error") == 2
