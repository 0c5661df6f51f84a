"""Spans and counts recorded from outside the simulator.

A Tracer replaces the public functions that ``driver.step`` calls with thin
wrappers, at the name each caller looks up: ``driver`` and ``contact`` bind
``stress_batch``, ``stencil_batch`` and friends by name at import, so those
are patched on the calling module, while ``driver`` reaches ``transfers``,
``implicit``, ``collision``, ``contact`` and ``solver`` through module
attributes, and ``collision.detect_contacts`` looks up ``broadphase`` and
``narrowphase`` in its own module.  Nothing under ``src/`` changes.

Spans are kept in memory (one list, one parent index per span, one step id
per span) and written out when the run ends.  Counts come only from public
return values and fields.
"""

import contextlib
import json
import os
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    step: int     # step in progress, or the last one finished (0 before the first)
    parent: int   # index of the enclosing span, -1 for a root
    t0: float
    t1: float = 0.0


@contextlib.contextmanager
def patched(module, attr, replacement):
    """Set ``module.attr`` for the duration of the block, then restore it."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.steps = 0
        self._stack = []
        self._systems = []   # SystemMatrices assembled in the step in progress

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, fn, name, on_result=None, on_call=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call()
            span = Span(name, self.steps, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call site in ``tetmpm`` for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, hook in self._targets():
                on_call = self._step_opened if name == "driver.step" else None
                wrapper = self.wrap(getattr(module, attr), name, hook, on_call)
                stack.enter_context(patched(module, attr, wrapper))
            yield self

    def _targets(self):
        from tetmpm import collision, contact, driver, implicit, solver, transfers

        return [
            (driver, "seed_particles", "scene.seed", None),
            (driver, "stress_batch", "constitutive.stress", None),
            (driver, "project_tangent_batch", "constitutive.stress", None),
            (driver, "plastic_project_batch", "constitutive.plastic", None),
            (driver, "stencil_batch", "kernels.stencil", self._on_stencil),
            (contact, "stencil_batch", "kernels.stencil", self._on_stencil),
            (transfers, "p2g", "transfers.p2g", None),
            (transfers, "internal_forces", "transfers.internal_forces", None),
            (transfers, "g2p", "transfers.g2p", None),
            (implicit, "assemble", "implicit.assemble", self._on_assemble),
            (implicit, "free_velocity", "implicit.free_velocity", None),
            (collision, "build_primitives", "collision.primitives", None),
            (collision, "bounding_radius", "collision.primitives", None),
            (collision, "broadphase", "collision.broadphase", self._on_broadphase),
            (collision, "narrowphase", "collision.narrowphase", None),
            (contact, "build_jacobian", "contact.jacobian", self._on_jacobian),
            (contact, "build_delassus", "contact.delassus", None),
            (contact, "apply_impulses", "contact.apply", None),
            (solver, "solve", "solver.solve", self._on_solve),
            (driver, "write_snapshot", "driver.snapshot", self._on_snapshot),
            (driver, "step", "driver.step", self._on_step),
        ]

    def _step_opened(self):
        self.steps += 1
        self._systems = []

    def _on_stencil(self, out, args, kwargs):
        self.count("kernels.stencil_points", out[0].shape[0])

    def _on_assemble(self, sys, args, kwargs):
        self._systems.append(sys)
        self.count("implicit.dofs", sys.dof_count)
        self.count("implicit.factor_s", sys.factor_time)
        self.count("implicit.shifted_factorizations", int(sys.shift_applied > 0))

    def _on_broadphase(self, pairs, args, kwargs):
        self.count("collision.candidate_pairs", len(pairs))

    def _on_jacobian(self, jac, args, kwargs):
        self.count("contact.rows", jac.H.shape[0])

    def _on_solve(self, result, args, kwargs):
        cap = kwargs.get("max_iters", 1000)
        self.count("solver.admm_iters", result.iterations)
        self.count("solver.cap_hits", int(not result.converged and result.iterations >= cap))
        self.count("solver.zero_iter_solves", int(result.iterations == 0))

    def _on_snapshot(self, out, args, kwargs):
        self.count("driver.snapshot_bytes", os.path.getsize(args[1]))

    def _on_step(self, diag, args, kwargs):
        self.count("collision.contacts", diag.n_contacts)
        self.count("implicit.admittance_solves", sum(s.solve_count for s in self._systems))
        self.peak("collision.max_penetration_mm", 1e3 * diag.max_penetration)

    def write(self, path):
        """Write every span, with its self time, as one JSON object per line."""
        own = self_times(self.spans)
        with open(path, "w") as f:
            for s, t in zip(self.spans, own):
                f.write(json.dumps({"name": s.name, "step": s.step, "parent": s.parent,
                                    "t0": s.t0, "t1": s.t1, "self": t}) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and the
    part they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.t1 - s.t0
    return [s.t1 - s.t0 - c for s, c in zip(spans, child)]


def self_time_by_name(spans, steps_only=False):
    """Total self time per span name.

    With ``steps_only``, only spans inside a ``driver.step`` span count, so
    the totals add up to the summed step wall time.
    """
    own = self_times(spans)
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = s.name == "driver.step" or (s.parent >= 0 and inside[s.parent])
    totals = {}
    for s, t, keep in zip(spans, own, inside):
        if keep or not steps_only:
            totals[s.name] = totals.get(s.name, 0.0) + t
    return totals
