"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Short-window smoke runs of every workload in both modes, the self-time
arithmetic on a hand-built span tree, the calibration arithmetic, exact
repetition of the per-layer counts, metric-name rules, and the failure exit
outside a full checkout.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, patched, self_time_by_name, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def short(name):
    """The workload with one or two steps per episode."""
    w = workloads.WORKLOADS[name]
    if w.mus:
        return dataclasses.replace(w, frames=1, mus=(w.mus[0], w.mus[-1]))
    return dataclasses.replace(w, frames=1 if name == "stack" else 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace, capsys):
    code = run.run_one(short(name), seed=3, seconds=0.01, trace=bool(trace))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_self_time_arithmetic():
    spans = [
        Span("driver.step", 1, -1, 0.0, 10.0),
        Span("implicit.assemble", 1, 0, 1.0, 4.0),
        Span("contact.delassus", 1, 0, 5.0, 9.0),
        Span("solver.solve", 1, 2, 6.0, 7.5),
        Span("driver.snapshot", 1, -1, 10.0, 12.0),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.5, 1.5, 2.0]
    inside = self_time_by_name(spans, steps_only=True)
    assert "driver.snapshot" not in inside
    assert sum(inside.values()) == 10.0
    assert self_time_by_name(spans)["driver.snapshot"] == 2.0


def test_calibration_arithmetic():
    nominal = calibrate.NOMINAL_UNIT_S
    # Three 1 s steps; the host slows from half speed to a quarter speed after the first.
    refs = [(10, 20 * nominal), (5, 20 * nominal), (5, 20 * nominal)]
    stamps = [1.25, 2.5, 3.75]
    steps = [1.0, 1.0, 1.0]
    assert calibrate.calibrate_steps(steps, refs, stamps, half_window=0.5) == pytest.approx(
        [0.5, 0.25, 0.25])
    assert calibrate.calibrate_steps(steps, refs, stamps, half_window=1.5) == pytest.approx(
        [15 / 40, 20 / 60, 10 / 40])


def test_recorder_runs_reference_after_each_step():
    ref = calibrate.Reference()
    recorder = workloads.StepRecorder(ref)
    step = recorder.wrap(lambda state: types.SimpleNamespace(converged=True))
    state = types.SimpleNamespace(dynamic_bodies=[])
    step(state)
    step(state)
    assert len(recorder.refs) == len(recorder.stamps) == len(recorder.durations) == 2
    assert sum(u for u, _ in recorder.refs) == ref.units >= 2
    assert sum(w for _, w in recorder.refs) == pytest.approx(ref.wall)


def test_reference_runs_whole_units():
    ref = calibrate.Reference()
    checksum = ref.unit()
    assert ref.unit() == checksum and ref.units == 0
    ref.run_for(0.0)
    assert ref.units == 1 and ref.wall > 0
    assert ref.factor() == pytest.approx(calibrate.NOMINAL_UNIT_S / ref.wall)


def test_tracer_nests_spans_and_restores_patches():
    ns = types.SimpleNamespace(inner=lambda x: x + 1)

    def outer(x):
        return ns.inner(x) * 2

    tracer = Tracer()
    original = ns.inner
    with patched(ns, "inner", tracer.wrap(ns.inner, "inner")):
        assert tracer.wrap(outer, "outer")(1) == 4
    assert ns.inner is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_counts_repeat_for_a_seed(tmp_path):
    w = short("stack")
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            workloads.run_episode(w, workloads.build_config(w, 5), str(tmp_path), 5)
        counts.append({k: v for k, v in tracer.counts.items() if k != "implicit.factor_s"})
    assert counts[0] == counts[1]
    assert counts[0]["collision.contacts"] > 0


def test_metric_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
