"""Outside-in tracing: time calls into modhand's modules from the benchmark.

The tracer replaces a module attribute with a timing wrapper, so it sees every
call that goes through that name, including the program's own calls between
modules (``modhand.grasp`` calls ``forward_kinematics`` through the name it
imported from ``modhand.kinematics``).  Spans nest: each records its
inclusive time and the part of it covered by traced calls it made, so a
layer's self time is inclusive minus child time.  Spans are aggregated in
memory by (operation label, span name) and read when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, span name).  A function imported into several modules is
# wrapped in each, under one span name.
WRAP_POINTS = (
    ("modhand.grasp", "envelop_sweep", "grasp.envelop_sweep"),
    ("modhand.grasp", "detect_contacts", "grasp.detect_contacts"),
    ("modhand.grasp", "forward_kinematics", "kinematics.forward_kinematics"),
    ("modhand.grasp", "stiffness_matrices", "ucm.stiffness_matrices"),
    ("modhand.grasp", "transmission_state", "ucm.transmission_state"),
    ("modhand.kinematics", "batch_fingertips", "kinematics.batch_fingertips"),
    ("modhand.hand", "hand_workspace", "hand.hand_workspace"),
    ("modhand.hand", "sample_workspace", "kinematics.sample_workspace"),
    ("modhand.hand", "forward_kinematics", "kinematics.forward_kinematics"),
    ("modhand.cli", "main", "cli.main"),
    ("modhand.cli", "resolve_params", "params.resolve_params"),
    ("modhand.cli", "drive_to_mcp", "drive.drive_to_mcp"),
    ("modhand.cli", "rigid_coupled_flexion", "drive.rigid_coupled_flexion"),
    ("modhand.cli", "sample_workspace", "kinematics.sample_workspace"),
    ("modhand.cli", "points_to_csv", "kinematics.points_to_csv"),
    ("modhand.cli", "transmission_jacobians", "ucm.transmission_jacobians"),
    ("modhand.cli", "stiffness_matrices", "ucm.stiffness_matrices"),
    ("modhand.cli", "constraint_rank", "ucm.constraint_rank"),
    ("modhand.cli", "motion_subspaces", "ucm.motion_subspaces"),
    ("modhand.cli", "hand_fk", "hand.hand_fk"),
)


class Tracer:
    """Wraps the WRAP_POINTS while active; restores the originals on exit."""

    def __init__(self, modules):
        self._modules = modules  # name -> imported module
        self._saved = []
        self._stack = []  # child seconds accumulated by each open span
        self.op = ""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)

    def __enter__(self):
        for module_name, attr, span in WRAP_POINTS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, span):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = (self.op, span)
                calls[key] += 1
                total[key] += dt
                self_time[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def sum(self, table, span, op="") -> float:
        """Sum of ``table`` for a span over the operations whose label starts
        with ``op`` (all operations by default)."""
        return sum(v for (o, s), v in table.items() if s == span and o.startswith(op))


def snapshot(modules) -> tuple:
    """The objects bound at every wrap point, to check that tracing restored
    them (compare by identity)."""
    return tuple(getattr(modules[m], attr) for m, attr, _ in WRAP_POINTS)
