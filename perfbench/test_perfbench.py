"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import argparse
import json
import time
from pathlib import Path

import pytest

import run
import workloads as W
from tracing import Tracer

BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    mods = W.import_hlkit()
    return mods, W.Memos(mods)


def small_cli(mods, seed=5, count=36, refs=None):
    ops = W.cli_ops(mods, refs or W.load_refs("cli"), seed)[:count]
    return W.Workload("cli", ops, clear_each_op=True)


def args_for(workload, trace):
    return argparse.Namespace(workload=workload, seed=5, seconds=0, trace=trace)


def test_same_seed_same_inputs(lib):
    mods, _ = lib
    assert W.cli_mix(11) == W.cli_mix(11)
    assert W.cli_mix(11) != W.cli_mix(12)
    assert [op.name for op in W.build("cli", 11, mods).ops] == [
        op.name for op in W.build("cli", 11, mods).ops
    ]
    assert W.qprime_inputs() == W.qprime_inputs()


def test_mix_covers_every_verb_with_a_reference():
    refs = W.load_refs("cli")
    catalog = W.cli_catalog()
    assert all(W.cli_key(a) in refs for reqs in catalog.values() for a in reqs)
    verbs = {argv[0] for argv in W.cli_mix(3)}
    parser_verbs = {"qprime", "aleph", "addone", "subone", "pp-expand", "charge",
                    "tableaux", "factor-check", "scalar", "verify"}
    assert verbs == parser_verbs
    assert len(W.cli_mix(3)) == W.CLI_REQUESTS_PER_GROUP * len(catalog)


def test_leading_negative_vectors_follow_double_dash():
    negative = 0
    for argv in W.cli_catalog()["qprime-vector"]:
        if argv[-1].startswith("-"):
            assert argv[-2] == "--"
            negative += 1
    assert negative


def test_memos_found_without_running_the_cli(lib):
    mods, memos = lib
    assert "__main__" not in mods
    assert len(memos.memos) == 19


def test_two_traced_runs_give_identical_counts(lib, monkeypatch):
    mods, memos = lib
    out = run.OUT / "test"
    monkeypatch.setattr(run, "OUT", out)
    counts = []
    for _ in range(2):
        _tally, metrics, _detail = run.measure_traced(
            args_for("cli", 1), mods, memos, small_cli(mods)
        )
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["laurent.add.calls"] > 0
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(metrics)
    assert (out / "spans-cli-seed5.txt.gz").stat().st_size > 0


def test_tracer_restores_the_library(lib):
    mods, _ = lib
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    cls_add = mods["xpoly"].XPoly.__dict__["__add__"]
    tracer = Tracer(mods, W.LAYERS)
    tracer.install()
    assert mods["hall_littlewood"].qprime_schur is not before["hall_littlewood"]["qprime_schur"]
    assert mods["hlkit"].qprime_schur is mods["hall_littlewood"].qprime_schur
    tracer.uninstall()
    assert mods["xpoly"].XPoly.__dict__["__add__"] is cls_add
    for name, mod in mods.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items())


def test_untraced_run_reports_every_end_to_end_metric(lib):
    mods, memos = lib
    tally, metrics, _detail = run.measure(args_for("cli", 0), mods, memos, small_cli(mods))
    assert tally.failed == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(metrics)
    assert all(v > 0 for v, _unit in metrics.values())


def test_pass_times_are_scaled_to_the_reference_speed(lib, monkeypatch):
    mods, memos = lib
    # The host runs at half the reference speed: every speed sample
    # takes twice REFERENCE_S, so times are halved.
    monkeypatch.setattr(run, "reference_chunk", lambda: 2 * run.REFERENCE_S)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    wl = small_cli(mods, count=4)
    _tally, metrics, detail = run.measure(args_for("cli", 0), mods, memos, wl)
    assert set(detail["speed_factors"]) == {0.5}
    assert metrics["wall_s"][0] == pytest.approx(detail["wall_clock.wall_s"] / 2)


def test_sampler_time_is_left_out_of_operations(lib, monkeypatch):
    _mods, memos = lib
    monkeypatch.setattr(run, "reference_chunk", lambda: time.sleep(0.05) or 0.05)
    sampler = run.SpeedSampler(interval=60)
    # A sample taken inside an operation, as when the timer fires there.
    op = W.Op("sampled", run=sampler._sample, check=lambda out: True)
    wl = W.Workload("gate", [op], clear_each_op=False)
    times = run.run_pass(wl, memos, run.Tally(), sampler)
    assert sampler.samples == [1]
    assert times[0] < 0.05 <= sampler.spent


def test_corrupted_reference_counts_as_failed(lib):
    mods, memos = lib
    refs = W.load_refs("cli")
    wl = small_cli(mods, refs=refs)
    victim = wl.ops[3].name
    corrupted = dict(refs)
    corrupted[victim] = dict(refs[victim], sha256="0" * 32)
    wl = small_cli(mods, refs=corrupted)
    tally = run.Tally()
    run.run_pass(wl, memos, tally, run.SpeedSampler())
    assert tally.attempted == len(wl.ops)
    assert tally.failed == sum(op.name == victim for op in wl.ops) >= 1


def test_corrupted_gate_detail_counts_as_failed(lib):
    mods, memos = lib
    refs = W.load_refs("gate")
    refs["criterion_2"] = dict(refs["criterion_2"], detail="something else")
    ops = [op for op in W.gate_ops(mods, refs) if op.name in ("criterion_2", "criterion_3")]
    tally = run.Tally()
    run.run_pass(W.Workload("gate", ops, clear_each_op=False), memos, tally,
                 run.SpeedSampler())
    assert (tally.attempted, tally.failed) == (2, 1)


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(W.WORKLOADS)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(Path(W.ROOT / p).is_dir() for p in BENCHMARK["paths"])
