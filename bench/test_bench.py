"""Tests of the benchmark itself: names, span coverage, checks and a smoke
run of every workload.

    python -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _small(name: str) -> run.Workload:
    """The workload with a one- or two-rollout job budget."""
    wl = run.WORKLOADS[name]
    if not wl.trains:
        return wl
    return dataclasses.replace(wl, job_frames=20 * wl.workers)


def test_names_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(n, run.layer_unit(n)) for n in run.PER_LAYER]
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {n: m["unit"] for n, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        printed = f"{name} = {run._fmt(m['value'])} {m['unit']}"
        assert any(line.endswith(printed) for line in lines[:-1]), printed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


EVERY_RUN = ([f"gridnav.{n}" for n in tracing.GRIDNAV_SPANS]
             + [f"nets.{n}" for n in tracing.NETS_SPANS]
             + [f"autodiff.op.{k}.fwd" for k in run.COMMON_OPS])
TRAINING = (["autodiff.backward", "a3c.worker_update", "a3c.compute_losses",
             "a3c._worker_loop"]
            + [f"autodiff.op.{k}.fwd" for k in run.TRAIN_OPS]
            + [f"autodiff.op.{k}.bwd" for k in run.COMMON_OPS + run.TRAIN_OPS])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_span_fires(program, workload):
    """A refactor that moves a call must not silently drop a layer."""
    wl = _small(workload)
    units = run.Units(program, wl, run.set_up(program, wl, 1), seed=1)
    recorder = tracing.Recorder()
    t0 = time.perf_counter()
    with tracing.instrument(recorder):
        outcome = units.run(0)
    wall = time.perf_counter() - t0
    stats = recorder.stats()
    expected = EVERY_RUN + (TRAINING if wl.trains else ["a3c.play_episode"])
    assert not outcome.error
    assert [n for n in expected if n not in stats] == []
    if wl.trains:
        assert recorder.lock_wait_s > 0.0
    if wl.mode != "async":  # spans of two threads overlap in wall time
        assert sum(s.self_time for s in stats.values()) <= wall
    assert all(s.self_time >= 0.0 for s in stats.values())


def test_instrument_restores_every_name(program):
    before = {n: getattr(program.autodiff.Graph, n)
              for n in program.autodiff.OP_KINDS}
    update = program.a3c.worker_update
    with tracing.instrument(tracing.Recorder()):
        assert program.a3c.worker_update is not update
    assert program.a3c.worker_update is update
    assert before == {n: getattr(program.autodiff.Graph, n)
                      for n in program.autodiff.OP_KINDS}


def test_tape_node_count_repeats(program):
    wl = run.WORKLOADS["train_desk"]
    s = run.set_up(program, wl, 5)
    counts = [run.measure_traced(program, run.Units(program, wl, s, 5), 0.1)
              [1]["autodiff.tape_nodes_per_frame"] for _ in range(2)]
    assert counts[0] == counts[1] > 40


def test_bad_episode_fails_the_check(program, monkeypatch):
    wl = run.WORKLOADS["eval_desk"]
    s = run.set_up(program, wl, 1)
    good = run.Units(program, wl, s, 1).run(0)
    assert good.problems == [] and good.frames >= 1

    def bogus(*args, **kwargs):
        return program.a3c.EpisodeResult(reward=0.5, success=False,
                                         steps=31, trace=[])

    monkeypatch.setattr(program.a3c, "play_episode", bogus)
    bad = run.Units(program, wl, s, 1).run(0)
    assert len(bad.problems) == 2


def test_bad_observation_fails_the_check(program, monkeypatch):
    wl = run.WORKLOADS["eval_desk"]
    s = run.set_up(program, wl, 1)
    assert run.check_observations(program, wl, s, 1) == []
    render = program.gridnav.render

    def too_bright(state):
        obs = render(state)
        obs.image.data[0, 0, 0] = 1.5
        return obs

    monkeypatch.setattr(program.gridnav, "render", too_bright)
    assert run.check_observations(program, wl, s, 1) != []


def test_sync_job_is_reproducible(program):
    assert run.check_sync_reproducible(program, 2) == []


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
