"""Trace corpus of the grasp solver, and the re-baseline diff between two dumps.

    python tools/retrace.py dump <src> <out.jsonl> [--groups g1,g2,...]
    python tools/retrace.py diff <a.jsonl> <b.jsonl>

``dump`` imports ``modhand`` from the ``src`` tree it is given, runs the
corpus's enveloping sweeps and writes one JSON record per drive step: the
drive, joints and energy as ``float.hex``, each candidate contact's phalanx,
gap and force, the candidate and touching sets, the relative stationarity
residual (KKT residual) and the lowest eigenvalue of the reduced Lagrangian
Hessian (negative at a saddle).  One record per sweep follows its steps with
the status.  Step and sweep records both count the calls of the contact
kernel, the QP, its KKT eliminations (``_gauss``) and the multiplier fit's
least-squares solves (``_lstsq``).  Each outer iteration runs one QP and
certifies its point with one fit on the rows that QP rested on, so a step
has no more fits than QP calls.
Run it once per source tree, each in its own process: the corpus of one
commit against the corpus of another is the re-baseline of a solver change.

``diff`` prints, per scene group: the status changes, the steps whose
candidate or touching set changed, the largest joint move, every step whose
joints moved more than 1e-9 rad, how many steps changed any bit of their
energy, gaps or forces (the first 20 listed), the status totals, saddles,
the largest KKT residual, and the kernel, QP, elimination and fit calls per
step on each side.  It exits 1 when any status, set or joint (beyond 1e-9 rad)
differs, else 0: changed bits and residuals alone are reported, not failed.

Groups: ``bench`` (the benchmark's own envelop scenes at seeds 0-12, built by
``Envelop`` of this checkout's ``bench/workloads.py`` and named
``seed<s>/<label>`` by its labels, so the group follows the benchmark),
``coarse`` (the ejection scene and the 8 mm scene at 38 and 75 steps),
``ejection`` (16 mm at (40, 50, 0), 150 steps), ``grazing`` (8 mm at
(70, 30, 0)), ``vertex`` (24 mm at (70, 40, 0)), ``removal`` (40 mm, the
object removed at step 100), ``scan`` (radius 4 / 6 / 8 / 12 mm, centres
x 20-90 by 10, y 5-50 by 5, 150 steps to a = 60) and ``found`` (four random
scenes with a swing, each ending ``non-converged``: one sphere with the
enveloping springs, 60 steps, and three half-spaces with default params, 150
steps; all to a = 60).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import Envelop  # noqa: E402  the bench group's scenes

# The enveloping springs, the goldens' --config.
ENV_SPRINGS = Path(__file__).resolve().parent.parent / "tests" / "data" / "env_springs.json"
GROUPS = ("bench", "coarse", "ejection", "grazing", "vertex", "removal", "scan", "found")
MOVE_TOL = 1e-9  # rad, joint move that the diff lists step by step
BITS_LISTED = 20  # steps with changed energy, gap or force bits listed per group
# Record key -> the modhand.grasp function whose calls it counts, per step and per sweep.
COUNTED = {"kernel_calls": "_kernel", "qp_calls": "_solve_qp",
           "gauss_calls": "_gauss", "lstsq_calls": "_lstsq"}


def scenes(groups, modules):
    """(group, name, params, object, schedule, remove_at, swing) of the corpus,
    built with ``modules``, the ``modhand.grasp`` and ``modhand.params`` of the
    tree under test keyed by name, as the benchmark's workloads take them;
    the swing is the start's ``q_aa``, the angle the sweep holds."""
    grasp = modules["modhand.grasp"]
    base = modules["modhand.params"].default_params()
    env = modules["modhand.params"].load_params(ENV_SPRINGS)
    sphere, half_space = grasp.RigidObject.sphere, grasp.RigidObject.half_space

    def sweep(n, a_max=60.0):
        return np.linspace(0.0, a_max, n)

    if "bench" in groups:
        for seed in range(13):
            for label, (params, obj, schedule, _) in Envelop(modules, seed, None).scenes.items():
                yield "bench", f"seed{seed}/{label}", params, obj, schedule, None, 0.0
    if "coarse" in groups:
        for n in (38, 75):
            yield "coarse", f"eject/{n}", env, sphere((40.0, 50.0, 0.0), 8.0), sweep(n), None, 0.0
            yield "coarse", f"8mm/{n}", env, sphere((50.0, 40.0, 0.0), 4.0), sweep(n), None, 0.0
    if "ejection" in groups:
        yield "ejection", "eject/150", env, sphere((40.0, 50.0, 0.0), 8.0), sweep(150), None, 0.0
    if "grazing" in groups:
        yield "grazing", "8mm@70,30", env, sphere((70.0, 30.0, 0.0), 4.0), sweep(150), None, 0.0
    if "vertex" in groups:
        yield "vertex", "24mm@70,40", env, sphere((70.0, 40.0, 0.0), 12.0), sweep(150), None, 0.0
    if "removal" in groups:
        yield ("removal", "40mm/removed@100", env, sphere((34.0, 28.0, 0.0), 20.0),
               sweep(160, 27.5), 100, 0.0)
    if "scan" in groups:
        for radius in (4.0, 6.0, 8.0, 12.0):
            for x in range(20, 100, 10):
                for y in range(5, 55, 5):
                    yield ("scan", f"r{radius:g}@{x},{y}", env,
                           sphere((float(x), float(y), 0.0), radius), sweep(150), None, 0.0)
    if "found" in groups:
        yield ("found", "sphere@28,52,3", env,
               sphere((28.26328224535181, 51.62912260747881, 3.2017145527198245),
                      8.88350046765036),
               sweep(60), None, -0.17117139575650145)
        for name, point, normal, swing in (
            ("half-space@55,38", (54.81319907124242, 38.480838259253446, 0.0),
             (-0.27405405149423917, -0.9617142906599615, 0.10860979140804056),
             -0.22123271831517816),
            ("half-space@30,53", (30.465450068396244, 52.64723720054389, 0.0),
             (-0.2103718385857048, -0.9717587515588932, 0.10690471598003312),
             0.028262484751023775),
            ("half-space@57,45", (57.284573491249894, 45.33499724726051, 0.0),
             (-0.21545656419239295, -0.9755544096967909, 0.043267339501697755),
             -0.01646366562782897),
        ):
            yield "found", name, base, half_space(point, normal), sweep(150), None, swing


def _flexion(joints) -> tuple:
    """The flexion angles of a JointState as floats, read from its fields so
    that any src tree's records read alike, whatever their methods return."""
    return joints.q1, joints.q2, joints.q3


def optimality(grasp, step, params, obj) -> tuple:
    """(stationarity, lowest eigenvalue) of a trace step.

    Stationarity: the energy gradient less the trace forces along the
    kernel's gap rows, with the part a stop the step rests on can balance
    (one-sided) removed, relative to 1 + |grad E|.  Lowest eigenvalue: that
    of H - sum f_k Hess g_k over the contacts carrying force, on the null
    space of their rows and of the stops the step rests on, relative to
    |H|_2; +inf when that null space is empty."""
    frame = grasp._solve_frame(step.joints.q_aa, params, obj)
    x = _flexion(step.joints)
    hits = {hit.phalanx: hit for hit in grasp._kernel(x, frame)}
    H = grasp.stiffness_matrices(params).joint
    grad = np.asarray(grasp.elastic_energy_gradient(x, step.a, params), dtype=float)
    residual, W, rows = grad.copy(), np.array(H, dtype=float), []
    for c in step.contacts:
        residual -= c.force * np.asarray(hits[c.phalanx].grad)
        if c.force > 0.0:
            W -= c.force * np.asarray(hits[c.phalanx].hess)
            rows.append(hits[c.phalanx].grad)
    for j, (value, (lo, hi)) in enumerate(zip(x, params.joint_limits[1:])):
        if value - lo <= 1e-9:
            residual[j] = min(residual[j], 0.0)
        elif hi - value <= 1e-9:
            residual[j] = max(residual[j], 0.0)
        else:
            continue
        rows.append(np.eye(3)[j])
    kkt = float(np.linalg.norm(residual) / (1.0 + np.linalg.norm(grad)))
    Z = np.eye(3)
    if rows:
        _, s, vt = np.linalg.svd(np.asarray(rows, dtype=float))
        Z = vt[int(np.sum(s > 1e-9 * max(s[0], 1.0))):].T
    if not Z.shape[1]:
        return kkt, float("inf")
    return kkt, float(np.linalg.eigvalsh(Z.T @ W @ Z).min() / np.linalg.norm(H, 2))


def dump(src: str, out: str, groups) -> None:
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(name) for name in ("modhand.grasp", "modhand.params")}
    grasp, JointState = modules["modhand.grasp"], modules["modhand.params"].JointState
    from modhand.errors import SweepError

    counts, step_calls = Counter(), []
    for name in COUNTED.values():
        def counted(*args, _fn=getattr(grasp, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        setattr(grasp, name, counted)

    def solve(*args, _fn=grasp._solve, **kwargs):  # one call per drive step
        before = counts.copy()
        try:
            return _fn(*args, **kwargs)
        finally:
            step_calls.append(counts - before)
    grasp._solve = solve

    with open(out, "w") as fh:
        for group, name, params, obj, schedule, remove_at, swing in scenes(groups, modules):
            counts.clear()
            step_calls.clear()
            try:
                trace = grasp.envelop_sweep(schedule, params, obj, JointState(q_aa=swing),
                                            remove_object_at=remove_at)
            except SweepError as exc:
                status, steps = f"infeasible ({type(exc.cause).__name__})", ()
            else:
                status, steps = trace.status, trace.steps
            calls = counts.copy()
            for i, step in enumerate(steps):
                present = remove_at is None or i < remove_at
                kkt, lowest_eig = optimality(grasp, step, params, obj if present else None)
                record = {
                    "group": group, "scene": name, "step": i,
                    "a": step.a.hex(),
                    "joints": [v.hex() for v in _flexion(step.joints)],
                    "energy": float(step.energy).hex(),
                    "contacts": [[c.phalanx, c.gap.hex(), c.force.hex()] for c in step.contacts],
                    "candidates": [c.phalanx for c in step.contacts],
                    "touching": [c.phalanx for c in step.contacts if grasp.touches(c)],
                    "kkt": kkt,
                    "lowest_eig": lowest_eig,
                    **{key: step_calls[i][name] for key, name in COUNTED.items()},
                }
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({
                "group": group, "scene": name, "status": status, "steps": len(steps),
                **{key: calls[name] for key, name in COUNTED.items()},
            }) + "\n")


def load(path):
    """(sweeps, steps): scene -> summary record, (scene, step) -> record."""
    sweeps, steps = {}, {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "step" in record:
                steps[record["scene"], record["step"]] = record
            else:
                sweeps[record["scene"]] = record
    return sweeps, steps


def diff(path_a: str, path_b: str, out=sys.stdout) -> int:
    """Print the re-baseline of ``path_b`` against ``path_a``; 1 when it is
    not clean."""
    (sweeps_a, steps_a), (sweeps_b, steps_b) = load(path_a), load(path_b)
    by_group = defaultdict(list)
    for scene, record in sweeps_a.items():
        by_group[record["group"]].append(scene)
    dirty = False
    for scene in sweeps_b.keys() - sweeps_a.keys():
        print(f"only in {path_b}: {scene}", file=out)
        dirty = True
    for group, names in by_group.items():
        status_changes, set_changes, moves, largest, bits = [], [], [], 0.0, []
        totals = [Counter(), Counter()]
        saddles, work, kkt = [0, 0], [Counter(), Counter()], [0.0, 0.0]
        for scene in names:
            a, b = sweeps_a[scene], sweeps_b.get(scene)
            if b is None:
                status_changes.append(f"{scene}: missing in {path_b}")
                continue
            for side, record in enumerate((a, b)):
                totals[side][record["status"]] += 1
                work[side].update({key: record.get(key, 0) for key in ("steps", *COUNTED)})
            if (a["status"], a["steps"]) != (b["status"], b["steps"]):
                status_changes.append(
                    f"{scene}: {a['status']} after {a['steps']} -> {b['status']} after {b['steps']}"
                )
            for i in range(max(a["steps"], b["steps"])):
                sa, sb = steps_a.get((scene, i)), steps_b.get((scene, i))
                for side, s in enumerate((sa, sb)):
                    if s is not None:
                        saddles[side] += s["lowest_eig"] < -1e-6
                        kkt[side] = max(kkt[side], s["kkt"])
                if sa is None or sb is None:
                    continue
                for key in ("candidates", "touching"):
                    if sa[key] != sb[key]:
                        set_changes.append(f"{scene} step {i}: {key} {sa[key]} -> {sb[key]}")
                move = max(
                    abs(float.fromhex(u) - float.fromhex(v))
                    for u, v in zip(sa["joints"], sb["joints"])
                )
                largest = max(largest, move)
                if move > MOVE_TOL:
                    moves.append(f"{scene} step {i}: {move:.3g}")
                changed = [key for key, (u, v) in (
                    ("energy", (sa["energy"], sb["energy"])),
                    ("gaps", ({c[0]: c[1] for c in sa["contacts"]},
                              {c[0]: c[1] for c in sb["contacts"]})),
                    ("forces", ({c[0]: c[2] for c in sa["contacts"]},
                                {c[0]: c[2] for c in sb["contacts"]})),
                ) if u != v]
                if changed:
                    bits.append(f"{scene} step {i}: {', '.join(changed)}")
        dirty = dirty or bool(status_changes or set_changes or moves)
        print(f"== {group}: {len(names)} sweeps", file=out)
        for side, label in enumerate(("a", "b")):
            steps = work[side]["steps"]
            per = " / ".join(f"{key.split('_')[0]} {work[side][key] / steps:.3f}"
                             for key in COUNTED) + " per step" if steps else "no steps"
            print(f"  {label}: {dict(sorted(totals[side].items()))}; "
                  f"saddles {saddles[side]}; largest KKT residual {kkt[side]:.3g}; {per}",
                  file=out)
        print(f"  status changes: {len(status_changes) or 'none'}", file=out)
        for line in status_changes:
            print(f"    {line}", file=out)
        print(f"  set changes: {len(set_changes) or 'none'}", file=out)
        for line in set_changes:
            print(f"    {line}", file=out)
        print(f"  largest joint move: {largest:.3g} rad", file=out)
        print(f"  steps moving > {MOVE_TOL:g} rad: {len(moves) or 'none'}", file=out)
        for line in moves:
            print(f"    {line}", file=out)
        print(f"  steps with changed bits in energy, gaps or forces: {len(bits) or 'none'}",
              file=out)
        for line in bits[:BITS_LISTED]:
            print(f"    {line}", file=out)
        if len(bits) > BITS_LISTED:
            print(f"    ... and {len(bits) - BITS_LISTED} more", file=out)
    return int(dirty)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the corpus against a src tree")
    p_dump.add_argument("src")
    p_dump.add_argument("out")
    p_dump.add_argument("--groups", default=",".join(GROUPS),
                        help=f"comma-separated subset of {','.join(GROUPS)}")
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        groups = args.groups.split(",")
        unknown = set(groups) - set(GROUPS)
        if unknown:
            parser.error(f"unknown groups {sorted(unknown)}")
        dump(args.src, args.out, groups)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
