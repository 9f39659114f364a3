"""Tests of the benchmark itself:  python3 -m pytest -q bench

They run tiny ops through the real CLI, so they need the checkout's `src/`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import Command, OpContext, References, check_gf, check_rows, check_verify  # noqa: E402

from kolafreq.verification import REF_RESULTS_TABLE  # noqa: E402

TINY_ARGS = ("report", "--d", "1-3", "--terms", "200,200,200", "--json")


@pytest.fixture(autouse=True)
def restore_affinity():
    """A Runner pins its process to one CPU; give the test process its CPUs back."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


@pytest.fixture
def refs() -> References:
    return References.frozen(REF_RESULTS_TABLE)


def tiny_op(rng, ctx) -> list[Command]:
    want = {d: ctx.refs.table[d] for d in (1, 2, 3)}
    return [Command("report", TINY_ARGS, check_rows(want, "tiny"))]


def test_tiny_op_end_to_end(tmp_path, refs):
    runner = run.Runner(ROOT, tmp_path)
    op = run.run_op(runner, tiny_op(None, OpContext(refs)), "tiny", 1, traced=False)
    assert op.problems == []
    assert op.wall_s > 0 and op.cpu_s > 0 and op.rss_mb > 0
    assert op.norm_cpu_s > 0
    assert os.sched_getaffinity(0) == {runner.cpu}  # children inherit the one CPU


def test_norm_cpu_scales_cpu_time_by_the_reference_speed():
    proc = run.Proc(0, "", 2.0, 1.5, 20.0, ref_unit_s=2 * reference.NOMINAL_UNIT_S)
    assert proc.norm_cpu_s == pytest.approx(0.75)
    assert reference.unit() > 0


def test_traced_op_accounts_for_its_wall_time(tmp_path, refs):
    runner = run.Runner(ROOT, tmp_path)
    op = run.run_op(runner, tiny_op(None, OpContext(refs)), "tiny", 1, traced=True)
    assert op.problems == []
    m = op.layers
    layers = sum(m.get(f"{layer}.self_s", 0.0) for layer in run.LAYERS)
    assert m["cli.self_s"] + layers == pytest.approx(m["traced_wall_s"])
    assert m["cli.self_s"] > 0 and m["automaton.self_s"] > 0
    assert [m[f"automaton.states.d{d}"] for d in (1, 2, 3)] == [5, 17, 53]
    assert m["automaton.degree_profile.state_steps"] == (5 + 17 + 53) * 200
    assert m["automaton.degree_profile.calls"] == 3
    assert m["words.self_s"] == 0 and m["cluster.self_s"] == 0


def test_wrong_reference_is_counted_in_fail_ratio(tmp_path, refs, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny_op)
    good = run.run(ROOT, "tiny", 1, 0, False, refs, tmp_path)
    assert (good["failed"], good["fail_ratio"], good["problems"]) == (0, 0.0, [])
    assert good["counts"]["automaton.states.d3"] == 53  # from the traced warm-up op

    wrong = dataclasses.replace(refs, table={**refs.table, 3: (14, 200, 9, Fraction(1, 17))})
    bad = run.run(ROOT, "tiny", 1, 0, False, wrong, tmp_path)
    assert bad["ops"] >= run.MIN_OPS
    assert bad["failed"] == bad["ops"] and bad["fail_ratio"] == 1.0
    assert any("d=3" in p for p in bad["problems"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "src/kolafreq" in proc.stderr


def test_checks_catch_wrong_outputs(refs):
    ok = "\n".join(f"{n}: PASS (0.1s) - fine" for n in refs.verify_checks) + "\nall 10 checks passed\n"
    verify = check_verify(refs.verify_checks)
    assert verify(0, ok) == []
    assert verify(1, ok.replace("gf-s3: PASS", "gf-s3: FAIL")) == [
        "verify: exit code 1", "verify: gf-s3 FAIL"]
    assert verify(0, ok.replace("properties: PASS", "")) == ["verify: properties missing"]

    gf = check_gf(refs.gf_s3)
    good = json.dumps({"epsilon": "1/18", "lower": "4/9", "upper": "5/9", "rigor": "rigorous"})
    assert gf(0, good) == []
    assert gf(0, good.replace("1/18", "1/17")) != []
    assert check_rows(refs.series, "s")(0, "not json") != []


def test_layer_metrics_self_times_and_counts():
    spans = [
        {"id": 0, "parent": None, "name": "automaton.degree_profile", "start": 0,
         "end": 1_000_000_000, "set_size": 254, "N": 1000},
        {"id": 1, "parent": 0, "name": "automaton.build_automaton", "start": 0,
         "end": 250_000_000, "set_size": 254, "states": 4373},
        {"id": 2, "parent": None, "name": "automaton.degree_profile", "start": 2_000_000_000,
         "end": 2_000_001_000, "set_size": 254, "N": 1000},  # a cache hit
    ]
    m = run.layer_metrics([run.Trace(1.5, spans, {})])
    assert m["automaton.self_s"] == pytest.approx(1.000001)
    assert m["cli.self_s"] == pytest.approx(0.499999)
    assert m["automaton.degree_profile.d7.s"] == pytest.approx(1.000001)
    assert m["automaton.states.d7"] == 4373
    assert m["automaton.degree_profile.state_steps"] == 4373 * 1000
    assert m["automaton.degree_profile.ns_per_state_step"] == pytest.approx(0.75e9 / 4_373_000)
