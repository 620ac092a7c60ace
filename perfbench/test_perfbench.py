"""Tests of the benchmark itself: span arithmetic, small-scale smoke
runs of each workload, the printed report and ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

#: each workload at a size that runs in seconds
SMOKE = {
    "fl_train": functools.partial(
        workloads.fl_train, rounds=2, train_size=2_000, min_accuracy=0.0
    ),
    "fleet_sched": functools.partial(
        workloads.fleet_sched, rounds=2, fleet_size=20_000, cohort_size=512
    ),
    "serve_churn": functools.partial(
        workloads.serve_churn,
        devices=120,
        horizon_s=60.0,
        fleet_size=160,
        cohort_size=32,
    ),
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- span arithmetic --------------------------------------------------------


def _tree(spans):
    """A tracer holding ``(name, start, end, parent)`` spans."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    return tracer


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] holds two overlapping children ([1, 4] and [3, 6],
    # covering 5 together) and one running past its end ([8, 12],
    # clipped to 2); the first child holds a grandchild [2, 3]
    tracer = _tree(
        [
            ("engine.round", 0.0, 10.0, -1),
            ("models.a", 1.0, 4.0, 0),
            ("models.b", 3.0, 6.0, 0),
            ("sched.c", 8.0, 12.0, 0),
            ("models.d", 2.0, 3.0, 1),
        ]
    )
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    assert selfs == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    names = tracer.by_name()
    assert names["engine.round"] == pytest.approx((1, 10.0, 3.0))
    assert names["models.a"] == pytest.approx((1, 3.0, 2.0))
    # models.d sits inside models.a: busy counts the outer span only
    layers = tracer.by_layer()
    assert layers["models"] == pytest.approx((6.0, 6.0))
    assert layers["engine"] == pytest.approx((10.0, 3.0))
    assert layers["sched"] == pytest.approx((4.0, 4.0))


def test_layer_busy_counts_a_layer_reentered_through_another_once():
    tracer = _tree(
        [
            ("serve.request", 0.0, 10.0, -1),
            ("obs.fold", 2.0, 6.0, 0),
            ("serve.inner", 3.0, 5.0, 1),
        ]
    )
    assert tracer.by_layer()["serve"] == pytest.approx((10.0, 8.0))
    assert tracer.by_layer()["obs"] == pytest.approx((4.0, 2.0))


def test_wrap_records_nested_spans_and_uninstall_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        async def job(self):
            await asyncio.sleep(0)
            return self.inner()

    originals = dict(Box.__dict__)
    tracer = Tracer()
    seen = []
    tracer.wrap(Box, "outer", "engine.outer")
    tracer.wrap(Box, "inner", lambda args: "models.inner")
    tracer.wrap(Box, "job", "serve.job", lambda t, a, r: seen.append(r))
    box = Box()
    assert box.outer() == 2
    assert asyncio.run(box.job()) == 1
    tracer.uninstall()
    assert tracer.names == [
        "engine.outer",
        "models.inner",
        "serve.job",
        "models.inner",
    ]
    assert tracer.parents == [-1, 0, -1, 2]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    assert seen == [1]
    for attr in ("outer", "inner", "job"):
        assert Box.__dict__[attr] is originals[attr]


# -- workloads --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_smoke_is_correct_and_deterministic(name):
    first = SMOKE[name](0, 0.0, setups=1)
    assert first.correct, first.problems
    assert first.attempted > 0 and first.failed == 0
    assert set(first.e2e) == {n for n, _ in workloads.END_TO_END} - {
        "peak_rss_mb"
    }
    assert all(v > 0 for v in first.e2e.values())
    again = SMOKE[name](0, 0.0, setups=1)
    other = SMOKE[name](1, 0.0, setups=1)
    assert again.sim == first.sim
    assert all(other.sim[k] != v for k, v in first.sim.items())


def test_fl_train_accuracy_check_fails_the_run():
    result = SMOKE["fl_train"](0, 0.0, setups=1, min_accuracy=1.01)
    assert not result.correct
    assert result.failed == 1
    assert "accuracy" in result.problems[0]


def test_serve_churn_fails_when_a_heartbeating_device_is_killed(monkeypatch):
    from repro.serve.registry import DeviceRegistry

    check = DeviceRegistry.check

    def premature(self, now_s=None):
        # a defective monitor: devices die after 3 s of silence, while
        # the trace heartbeats every 4-6 s
        self.dead_after_s = 3.0
        return check(self, now_s)

    monkeypatch.setattr(DeviceRegistry, "check", premature)
    result = SMOKE["serve_churn"](0, 0.0, setups=1)
    assert not result.correct
    assert any(
        p.startswith("heartbeat") and p.endswith("returned 410")
        for p in result.problems
    )
    assert result.layer["serve.heartbeats_gone"] == 0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_counts_repeat_for_a_seed(name):
    def traced(seed):
        tracer = Tracer()
        probes.install(tracer)
        try:
            result = SMOKE[name](seed, 0.0, setups=1)
        finally:
            tracer.uninstall()
        metrics = probes.per_layer_metrics(tracer, result.layer, 1e-3)
        # obs.prom_bytes is left out: the scrape embeds host latencies
        return {
            k: v
            for k, (v, unit) in metrics.items()
            if unit in ("count", "MB", "fraction")
        }

    first, again = traced(0), traced(0)
    assert first == again
    assert any(v > 0 for v in first.values())


# -- the command ------------------------------------------------------------


@pytest.fixture
def small_workloads(monkeypatch):
    for name, fn in SMOKE.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, fn)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_command_prints_every_metric_with_its_unit(
    name, trace, small_workloads, capsys
):
    spec = _benchmark_json()
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert code == 0 and last["correct"] is True
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and last["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    table = "\n".join(lines[:-1])
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
            for line in table.splitlines()
        ), m["name"]


def test_command_fails_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fl_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == (
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in probes.PER_LAYER
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
