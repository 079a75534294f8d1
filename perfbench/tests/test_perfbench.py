"""Self-checks of the benchmark: its fuzz loop is acceptance 5's, its
checks reject wrong answers, and tracing leaves the program as it found it.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

from fdc import propcheck, reduction, subst, syntax
from fdc.propcheck import GenConfig, run_property
from fdc.syntax import App, Con, Ref, Refl, TCon, ZERO

import reference
import run
import speed
import tracing
import workloads

COUNT = 12


@pytest.fixture(scope="module")
def ctx():
    return workloads.build_context()


@pytest.mark.parametrize("name", workloads.SUITES)
def test_fuzz_case_matches_run_property(name, monkeypatch):
    cfg = GenConfig(seed=42, size=30, count=COUNT)
    seen = []
    original = propcheck.gen_well_typed

    def recording(cfg_, index=0):
        triple = original(cfg_, index)
        seen.append(triple[1:])
        return triple

    monkeypatch.setattr(propcheck, "gen_well_typed", recording)
    result = run_property(name, cfg)
    monkeypatch.undo()
    assert result.ok and result.cases == COUNT
    cases = [workloads.fuzz_case(name, cfg, i) for i in range(COUNT)]
    assert [(term, ty) for term, ty, _ in cases] == seen
    assert all(outcome is None for _, _, outcome in cases)


def test_fuzz_case_reports_the_failure_run_property_reports(monkeypatch):
    name = "progress"
    calls = itertools.count()
    monkeypatch.setitem(propcheck.PROPERTIES, name,
                        lambda env, term, ty: "boom" if next(calls) == 3
                        else None)
    result = run_property(name, GenConfig(seed=42, size=30, count=COUNT))
    assert result.cases == 4 and "boom" in result.counterexample
    calls = itertools.count()
    outcomes = [workloads.fuzz_case(name, GenConfig(seed=42), i)[2]
                for i in range(5)]
    assert outcomes == [None, None, None, "boom", None]


def test_fuzz_pool_covers_suites_and_preludes():
    ops = workloads.fuzz_pool()
    assert len({op.shape for op in ops}) == workloads.FUZZ_POOL
    pairs = {(s.split()[0], s.split()[-1]) for s in (op.shape for op in ops)}
    assert len(pairs) == 28


@pytest.mark.parametrize("workload", ["eval-deep", "elab-classes"])
def test_first_ops_pass_their_checks(ctx, workload):
    for i, op in enumerate(workloads.pool(workload, ctx, seed=5)[:12]):
        record = run.run_op(i, op, limit=60)
        assert record.outcome == "ok", (record.shape, record.detail)


def test_pools_depend_only_on_the_seed(ctx):
    def texts(seed):
        return [op.run.args[-1] for op in
                workloads.pool("elab-classes", ctx, seed)]
    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def test_known_defects_stay_visible(ctx, tmp_path):
    records = [run.run_op(i, op, limit=60) for i, op in
               enumerate(workloads.known_defects(ctx, 1, str(tmp_path)))]
    assert all(r.outcome == "RecursionError" for r in records)


def test_corpus_calls_take_every_input_pair_once():
    for seed in range(5):
        inputs = workloads._call_inputs(random.Random(seed))
        assert sorted((x, y) for x, y, _ in inputs) == sorted(
            itertools.product((True, False), repeat=2))
        assert sum(explicit for *_, explicit in inputs) == 2


def test_names_are_never_keywords():
    class Rigged:
        letters = iter("ataxyzrueabc")

        def choice(self, alphabet):
            return next(self.letters)

    names = workloads.Names(Rigged())
    assert (names("d"), names("T")) == ("dxyz", "Tabc")


def test_checks_reject_wrong_answers():
    true, false = Con("True"), Con("False")
    value = reduction.Value
    assert workloads._check_value(true, value(true)) is None
    assert workloads._check_value(true, value(false)) is not None
    assert workloads._check_value(true, reduction.ZeroResult()) is not None
    assert workloads._check_specialized(
        true, (value(true), App(Ref("not"), false), value(true))) is not None
    assert workloads._check_terminals(true, ([ZERO, true], True)) is None
    assert workloads._check_terminals(true, ([false], False)) is not None
    assert workloads._check_terminals(true, ([ZERO], True)) is not None


def test_reference_answers():
    assert reference.not_chain(3, True) is False
    assert reference.not_chain(4, True) is True
    assert reference.xor_fold([True, True, True]) is True
    assert reference.zero_free(Refl(TCon("Bool")))
    assert not reference.zero_free(App(Ref("not"), Con("True")))
    both = syntax.Choice(Refl(TCon("Bool")), Refl(TCon("Bool")))
    assert reference.collapse(both) == Refl(TCon("Bool"))


def test_tail_keeps_ten_ops_beyond():
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)


def test_a_raising_op_makes_the_run_incorrect():
    def boom():
        raise RecursionError("deep")

    op = workloads.Op("f", "", "shape", boom, lambda out: None)
    ok = workloads.Op("f", "", "shape", lambda: 1, lambda out: None)
    records = [run.run_op(0, ok, 5.0), run.run_op(1, op, 5.0)]
    assert records[1].outcome == "RecursionError"
    line = run.result_line(records, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (
        False, 2, 1)
    assert run.result_line(records[:1], {})["correct"]
    # the failed op leaves the latency metrics, so only `correct` shows it
    assert list(run.best_latencies(records)) == [0]


def test_latency_is_scaled_by_the_faster_probe(monkeypatch):
    probes = iter([4 * speed.REFERENCE_S, 2 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    op = workloads.Op("f", "", "shape", lambda: 1, lambda out: None)
    r = run.run_op(0, op, 5.0)
    assert r.outcome == "ok" and r.latency == pytest.approx(r.wall / 2)


def test_meter_probes_inside_a_long_op_and_leaves_their_time_out(
        monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    with speed.Meter() as meter:
        start = perf_counter()
        while perf_counter() - start < 10 * speed.INTERVAL_S:
            pass
    stretches = list(meter._stretches())
    assert len(stretches) > 3
    assert meter.wall == pytest.approx(sum(t for t, _ in stretches))
    assert meter.wall <= meter.marks[-1][0] - meter.marks[0][0]
    assert meter.scaled == pytest.approx(meter.wall / 2)


def test_tracer_counts_and_restores(ctx):
    before = (subst.shift, reduction.whnf, syntax.Env.type_sig,
              workloads.whnf, dict(propcheck.PROPERTIES))
    tracer = tracing.Tracer(clients=[workloads])
    tracer.install()
    try:
        result = workloads.whnf(ctx.prelude, workloads.not_chain(4, True))
    finally:
        tracer.uninstall()
    assert result == reduction.Value(Con("True"))
    assert before == (subst.shift, reduction.whnf, syntax.Env.type_sig,
                      workloads.whnf, dict(propcheck.PROPERTIES))
    m = tracer.metrics()
    assert m["reduction.whnf.calls"] == 1
    assert m["reduction.whnf.steps"] == 12
    assert m["syntax.env_lookup.calls"] > 0
    assert 0 <= m["reduction.whnf.self_s"] <= tracer.total_s["reduction.whnf"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench-out")
