"""Checks on the benchmark itself: same seed, same work; new seed, new work.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The workloads are built in process with a few operations and one client,
so every run executes exactly the same operations in order and ends when
they run out; the runner's own measuring and reporting functions are
called on them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from layers import traced_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)
#: Operations per client: two ``/add`` writes on http_mixed.
OPS = 2 * WORKLOADS["http_mixed"].write_every
#: Longer than the operations take, so a run ends when they run out.
SECONDS = 600.0


def _run(name: str, seed: int, trace: bool, capsys):
    workload = WORKLOADS[name](seed, OPS)
    workload.ops = workload.ops[:1]
    if trace:
        phases, summary, metrics = traced_run(workload, SECONDS)
    else:
        phases, summary = run.measure(workload, SECONDS, setups=1)
        metrics = run.end_to_end(summary)
    capsys.readouterr()
    assert run.report(workload, phases, summary, metrics) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(phases) * OPS
    if name == "http_mixed":
        assert summary["writes"] == 2
    answers = [(r.op, r.hits, r.generation) for phase in phases for r in phase]
    return answers, result["metrics"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_answers_and_deterministic_metrics(name, capsys):
    first_answers, first = _run(name, 5, False, capsys)
    second_answers, second = _run(name, 5, False, capsys)
    assert first_answers == second_answers
    for metric in ("sim_io_ms_per_query", "index_bytes_per_source_byte"):
        assert first[metric] == second[metric], metric
    assert first["sim_io_ms_per_query"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_changes_the_query_stream(name):
    assert WORKLOADS[name](3, OPS).ops != WORKLOADS[name](4, OPS).ops


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_layer_counts(name, capsys):
    _, first = _run(name, 5, True, capsys)
    _, second = _run(name, 5, True, capsys)
    counts = [
        metric for metric, entry in first.items()
        if entry["unit"] in ("count", "count/query")
    ]
    assert "index.hdil.leaf_decodes_per_query" in counts
    for metric in counts:
        assert first[metric] == second[metric], metric


def test_more_client_threads_than_nproc_are_refused(monkeypatch, capsys):
    assert WORKLOADS["http_mixed"].clients == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code = run.main(["--workload", "http_mixed", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr()
    assert code != 0 and out.out == ""
    assert "nproc=1" in out.err


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "dblp_probe", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0 and out.stdout == ""
