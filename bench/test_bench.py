"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the
repository root."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from harness import Run, Tracer, run_workload, timed_setup  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smallest_run_emits_every_declared_metric(name, trace):
    done = _run(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_corrupted_verdict_counts_as_failure():
    flipped = []

    def corrupt(out):
        if getattr(out, "answer", None) in ("Yes", "No"):
            flipped.append(out)
            return dataclasses.replace(out, answer="No" if out.answer == "Yes" else "Yes")
        return out

    result, lines = run_workload(WORKLOADS["construct"], 1, 0, False, ROOT, corrupt=corrupt)
    assert flipped
    assert result["failed"] == len(flipped) and not result["correct"]
    assert f"  error_rate = {len(flipped) / result['attempted']:.6g} ratio" in lines


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced_outputs(name, tmp_path):
    wl = WORKLOADS[name]
    run = Run(wl, 2, str(tmp_path))
    _setup_s, lib, cli, shared = timed_setup(wl, run.data)
    _, untraced, hints = run.measure(Env(lib, cli, shared), 0, 1, 40)
    tr = Tracer()
    env = Env(lib, cli, wl.instrument(lib, wl.setup(lib, run.data), tr), tr)
    run.replay(env, untraced[:len(hints)], hints)  # counts each output that differs as failed
    assert run.failed == 0, run.failures
    assert tr.records and all(r is not None for r in tr.records)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# decide-infinite --buchi without --fuel derives the budget from the automaton
# itself instead of its dead-lock-accepting variant.  Here q0 is accepting and
# index 4 (first at position 103 of the universal word) moves it into the
# dead-lock q1, so the right answer is No at 103; the CLI's budget is 1.
BUCHI_FUEL_CASE = """\
states: q0 q1
initial: q0
accepting: q0
etrans: q0 q0 0%1 -4
etrans: q0 q1 +4
etrans: q1 q1 0%2
etrans: q1 q1 1%2
"""


@pytest.mark.xfail(strict=True, reason="CLI decide-infinite --buchi derives fuel from the wrong automaton")
def test_cli_buchi_derived_fuel(tmp_path, capsys):
    from realizability.cli import main

    path = tmp_path / "case.ea"
    path.write_text(BUCHI_FUEL_CASE)
    code = main(["decide-infinite", "--effective", str(path), "--buchi"])
    assert (code, capsys.readouterr().out) == (1, "ANSWER=No EVIDENCE=103\n")
