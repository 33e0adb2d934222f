"""Smoke runs of each workload at its smallest size, untraced and traced."""

import json
import math
import os
import subprocess
import sys

import pytest

import run
from layers import PER_LAYER
from spans import LAYERS, Tracer
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smallest_size_round_is_correct(name, tmp_path):
    wl = WORKLOADS[name](str(tmp_path), seed=0, small=True)
    tally, values, table = run.measure(wl, seconds=0.01)
    assert tally.attempted >= 1 and tally.failed == 0
    assert [n for n, _ in table] == [n for n, _ in run.END_TO_END]
    for metric, _ in table:
        assert math.isfinite(values[metric]) and values[metric] > 0, metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smallest_size_traced_run_reports_every_layer(name, tmp_path):
    wl = WORKLOADS[name](str(tmp_path), seed=1, small=True)
    spans = tmp_path / "spans.jsonl"
    tally, values, table = run.measure_traced(wl, 0.01, str(spans))
    assert tally.failed == 0
    assert set(values) == {n for n, _ in PER_LAYER}
    assert all(math.isfinite(v) for v in values.values())
    assert values["cli.calls"] >= 1 and values["cli.self_ms"] > 0
    assert values["convnet.forward_ms"] > 0 and values["convnet.grad_ms"] > 0
    first = json.loads(spans.read_text().splitlines()[0])
    assert first[1] == "cli.main" and first[4] == -1
    # Without recorded digests the reference is the run's first round.
    assert values["check.identical_artifacts"] == values["check.artifacts"] > 0


def test_tracer_restores_original_functions():
    from attlab import convnet, harness

    original = harness.train
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.train is convnet.train is not original
        assert harness.train.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert harness.train is convnet.train is original
    assert {n.split(".")[0] for n in tracer.names} == set(LAYERS)


def test_refuses_to_run_without_sources(tmp_path):
    script = os.path.join(os.path.dirname(run.__file__), "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", "baseline-triad", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
