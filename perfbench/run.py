"""Benchmark for tetmpm: three scene workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The second form runs every workload, one process each, and
prints a table.  The exit code is non-zero when a correctness check fails or
when the simulator's sources are not beside the benchmark.  See README.md.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, patched, self_time_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1     # one process on a shared machine; never more than nproc
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "converged_step_frac": "ratio",
}

# Per-layer metrics: traced self time per step of each span name, except
# where noted in layer_metrics.
SPAN_METRICS = {
    "constitutive.stress_s": "constitutive.stress",
    "constitutive.plastic_s": "constitutive.plastic",
    "kernels.stencil_s": "kernels.stencil",
    "transfers.p2g_s": "transfers.p2g",
    "transfers.internal_forces_s": "transfers.internal_forces",
    "transfers.g2p_s": "transfers.g2p",
    "implicit.assemble_s": "implicit.assemble",
    "implicit.free_velocity_s": "implicit.free_velocity",
    "collision.primitives_s": "collision.primitives",
    "collision.broadphase_s": "collision.broadphase",
    "collision.narrowphase_s": "collision.narrowphase",
    "contact.jacobian_s": "contact.jacobian",
    "contact.delassus_s": "contact.delassus",
    "contact.apply_s": "contact.apply",
    "solver.solve_s": "solver.solve",
    "driver.snapshot_s": "driver.snapshot",
    "driver.step_self_s": "driver.step",
}
COUNT_METRICS = {
    "kernels.stencil_points": "count/step",
    "implicit.factor_s": "s/step",
    "implicit.dofs": "count/step",
    "implicit.admittance_solves": "count/step",
    "implicit.shifted_factorizations": "count/step",
    "collision.candidate_pairs": "count/step",
    "collision.contacts": "count/step",
    "contact.rows": "count/step",
    "solver.admm_iters": "count/step",
    "solver.cap_hits": "count/step",
    "solver.zero_iter_solves": "count/step",
    "driver.snapshot_bytes": "B/step",
}
PER_LAYER_UNITS = {
    "scene.seed_s": "s",
    **{name: "s/step" for name in SPAN_METRICS},
    **COUNT_METRICS,
    "collision.hit_ratio": "ratio",
    "collision.max_penetration_mm": "mm",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload; omit to run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tetmpm" / "__init__.py").is_file():
        print(f"error: no tetmpm package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import tetmpm
    if Path(tetmpm.__file__).resolve().parent != SRC / "tetmpm":
        print(f"error: imported tetmpm from {tetmpm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run_one(w, seed: int, seconds: float, trace: bool) -> int:
    import calibrate
    import workloads
    from tetmpm import driver

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{w.name}-{os.getpid()}"
    config = workloads.build_config(w, seed)
    if trace:
        setups = traced_setups(w, seed)
    else:
        setups = setup_times(w.name, seed)
    driver.step(driver.SimState(config))   # warm-up: lazy imports and first calls
    # Peak memory over set-up and one step.  Over whole episodes the peak
    # follows heap fragmentation, which moved it by +-6% between identical runs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = calibrate.Reference()
    reference.unit()                       # warm-up, not counted

    recorder = workloads.StepRecorder(reference)
    tracer = None
    episodes, errors = [], []
    start = perf_counter()
    try:
        while True:
            traced = trace and len(episodes) % 2 == 1
            if traced and tracer is None:
                tracer = Tracer()
            shutil.rmtree(scratch, ignore_errors=True)
            first = len(recorder.durations)
            ref_wall = reference.wall
            try:
                with contextlib.ExitStack() as stack:
                    if traced:
                        stack.enter_context(tracer.installed())
                    stack.enter_context(patched(driver, "step", recorder.wrap(driver.step)))
                    recorder.clear_episode()
                    t0 = perf_counter()
                    result = workloads.run_episode(w, config, str(scratch), seed)
                    wall = perf_counter() - t0 - (reference.wall - ref_wall)
            except Exception:
                errors.append("episode raised:\n" + traceback.format_exc())
                break
            segments = recorder.segments[first:]
            if segments:   # the tail after the last step's reference work joins its segment
                segments[-1] += wall - sum(segments)
            episodes.append(Episode(traced, recorder.durations[first:], segments,
                                    recorder.refs[first:], recorder.stamps[first:], wall))
            errors += workloads.check_episode(w, config, recorder, result)
            if errors:
                break
            elapsed = perf_counter() - start
            if trace and len(episodes) < 2:
                continue
            if elapsed + 0.5 * elapsed / len(episodes) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for e in errors:
        print(f"# check failed: {e}")
    untraced = [ep for ep in episodes if not ep.traced]
    info = {"workload": w.name, "seed": seed, "trace": int(trace),
            "environment": environment(),
            "episode_walls_s": [ep.wall for ep in episodes],
            "step_ms": [1e3 * d for ep in episodes for d in ep.durations],
            "step_segments_s": [s for ep in episodes for s in ep.segments],
            "step_end_s": [t - start for ep in episodes for t in ep.stamps],
            "step_refs": [list(r) for ep in episodes for r in ep.refs]}
    info.update(rate_summary("untraced", untraced))
    if trace:
        metrics = layer_metrics(tracer, setups) if tracer else {}
        info.update(rate_summary("traced", [ep for ep in episodes if ep.traced]))
        if untraced and tracer:
            info["trace_overhead"] = info["untraced_steps_per_s"] / info["traced_steps_per_s"] - 1.0
            info["trace_accounting"] = trace_accounting(tracer)
            tracer.write(OUT / f"trace-{w.name}-seed{seed}.jsonl")
    else:
        durations = calibrate.calibrate_steps([d for ep in episodes for d in ep.durations],
                                              [r for ep in episodes for r in ep.refs],
                                              [t for ep in episodes for t in ep.stamps])
        metrics = {
            "steps_per_s": info.get("untraced_steps_per_s", 0.0),
            "step_p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": peak_rss_mb,
            "converged_step_frac": recorder.converged / max(len(recorder.durations), 1),
        }
        info["setup_samples_s"] = [{"calibrated": s, "raw": raw} for s, raw in setups]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    correct = not errors and recorder.failed == 0
    out = {
        "correct": correct,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    info["result"] = out
    with open(OUT / f"result-{w.name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(info, f, indent=1)
    for key in ("environment", "untraced_raw", "trace_overhead", "trace_accounting"):
        if key in info:
            print(f"# {key}: {json.dumps(info[key])}")
    print(json.dumps(out))
    return 0 if correct else 1


@dataclasses.dataclass
class Episode:
    traced: bool
    durations: list     # wall time of each step
    segments: list      # wall time up to the end of each step since the last reference work
    refs: list          # units and wall time of the reference work after each step
    stamps: list        # the time each step ended
    wall: float         # wall time of the entry-point call, reference work excluded


def rate_summary(label: str, episodes) -> dict:
    """Steps per calibrated second over the episodes, and the raw figures beside it.

    Each step's segment of its episode (see ``StepRecorder``) is calibrated
    by the reference work next to it, so the episodes' time is calibrated
    piece by piece.
    """
    import calibrate

    steps = sum(len(ep.durations) for ep in episodes)
    wall = sum(ep.wall for ep in episodes)
    refs = [r for ep in episodes for r in ep.refs]
    if not steps or not refs:
        return {}
    stamps = [t for ep in episodes for t in ep.stamps]
    calibrated = sum(calibrate.calibrate_steps([s for ep in episodes for s in ep.segments],
                                               refs, stamps))
    factor = calibrate.NOMINAL_UNIT_S * sum(u for u, _ in refs) / sum(w for _, w in refs)
    raw_p50 = statistics.median(d for ep in episodes for d in ep.durations)
    return {f"{label}_steps": steps, f"{label}_steps_per_s": steps / calibrated,
            f"{label}_raw": {"wall_s": wall, "steps_per_s": steps / wall,
                             "step_p50_ms": 1e3 * raw_p50, "calibration_factor": factor}}


def setup_times(name: str, seed: int) -> list:
    """Cold set-ups, each in a fresh interpreter: (calibrated, raw) seconds of each."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, factor = map(float, done.stdout.split()[-2:])
        times.append((raw * factor, raw))
    return times


def traced_setups(w, seed: int) -> list:
    """Seeding time of each of SETUP_REPEATS in-process SimState constructions."""
    import workloads
    from tetmpm import SimState

    times = []
    for _ in range(SETUP_REPEATS):
        tracer = Tracer()
        with tracer.installed():
            SimState(workloads.build_config(w, seed))
        times.append(self_time_by_name(tracer.spans).get("scene.seed", 0.0))
    return times


def layer_metrics(tracer, setups) -> dict:
    steps = max(tracer.steps, 1)
    own = self_time_by_name(tracer.spans)
    counts = tracer.counts
    out = {"scene.seed_s": statistics.median(setups)}
    for metric, span in SPAN_METRICS.items():
        out[metric] = own.get(span, 0.0) / steps
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / steps
    pairs = counts.get("collision.candidate_pairs", 0)
    out["collision.hit_ratio"] = counts.get("collision.contacts", 0) / pairs if pairs else 0.0
    out["collision.max_penetration_mm"] = counts.get("collision.max_penetration_mm", 0.0)
    return out


def trace_accounting(tracer) -> dict:
    """Layer self times inside steps, summed, against the summed step wall time."""
    inside = self_time_by_name(tracer.spans, steps_only=True)
    wall = sum(s.t1 - s.t0 for s in tracer.spans if s.name == "driver.step")
    return {"step_wall_s": wall, "self_sum_s": sum(inside.values()),
            "step_self_s": inside.get("driver.step", 0.0), "steps": tracer.steps}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports, by library file name."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(path).name] = fn()
                break
    return out


def git_commit():
    """HEAD of the checkout when it is its own git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_all(args) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            status = 1
            print(f"{name}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
