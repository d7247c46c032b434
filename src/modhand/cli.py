"""Command-line interface.

Subcommands: drive-map, workspace, ucm-report, envelop, hand-fk.  Exit codes:
0 success, 1 validation/usage error, 2 solver non-convergence.  A run with
--out also writes a run manifest (<out>.manifest.json) recording the
subcommand, the tool version, the seed, a digest of the resolved
configuration, every parsed option except --out (``inputs``) and the output
paths, so results can be traced back to their inputs.  The JSON formats embed
the same manifest in their payload.

All numeric output is fixed at 9 significant digits; computation is full
double precision.  The environment variable UCM_SEED overrides the default
sampling seed (0) when --seed is not given.

drive-map, ucm-report and envelop compute on floats and never import numpy;
envelop, workspace and hand-fk bind their modules on first use (``_lazy``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__, _lazy
from .drive import drive_to_mcp, rigid_coupled_flexion
from .errors import ModhandError, SweepError, ValidationError
from .params import (
    DriveState,
    JointState,
    _check,
    _read_json,
    params_to_dict,
    resolve_params,
)
from .ucm import constraint_rank, motion_subspaces, stiffness_matrices, transmission_jacobians

# The names of envelop, workspace and hand-fk and their modules, bound on
# first use so that the short reports load neither the solver nor numpy.
_LAZY = {**dict.fromkeys(("EquilibriumTrace", "RigidObject", "envelop_sweep"), "grasp"),
         **dict.fromkeys(("points_to_csv", "project_workspace", "sample_workspace"), "kinematics"),
         **dict.fromkeys(("default_layout", "hand_fk", "load_layout"), "hand")}
__getattr__ = _lazy(globals(), _LAZY)


def _bind(*names) -> None:
    """Bind the lazy ``names``; a bound one (perhaps a wrapper) is kept."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


def sig(x: float) -> float:
    """Round through the 9-significant-digit text form for stable JSON."""
    return float(fmt(x))


def sig_list(values) -> list:
    return [sig(v) for v in values]


def _default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    text = os.environ.get("UCM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"UCM_SEED: expected an integer, got {text!r}") from None


def _manifest(args, config, seed=None) -> dict:
    """Run manifest: ``config_digest`` is the sha256 of ``config``'s canonical
    JSON, and ``inputs`` holds every parsed option except --out."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    return {
        "subcommand": args.command,
        "version": __version__,
        "seed": seed,
        "config_digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "inputs": inputs,
        "outputs": [args.out] if args.out else [],
    }


def _emit(text: str, args, manifest: dict) -> None:
    """Write ``text`` to --out, with ``manifest`` beside it, or to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_drive_map(args) -> int:
    params = resolve_params(args.config)
    train = params.differential
    coupling = params.coupling_model()
    theta, (q_aa, q_fe) = drive_to_mcp(DriveState(args.a1, args.a2), train)
    q2, q3 = rigid_coupled_flexion(q_fe, coupling)

    manifest = _manifest(args, params_to_dict(params))
    if args.format == "json":
        # single-line structured record
        payload = {
            "theta_rad": sig_list((theta.theta1, theta.theta2)),
            "q_aa_rad": sig(q_aa),
            "q_fe_rad": sig(q_fe),
            "rigid_flexion_rad": sig_list([q_fe, q2, q3]),
            "manifest": manifest,
        }
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        lines = [
            "quantity        value",
            f"theta1_rad      {fmt(theta.theta1)}",
            f"theta2_rad      {fmt(theta.theta2)}",
            f"q_aa_rad        {fmt(q_aa)}",
            f"q_fe_rad        {fmt(q_fe)}",
            f"q1_rad          {fmt(q_fe)}",
            f"q2_rad          {fmt(q2)}",
            f"q3_rad          {fmt(q3)}",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args, manifest)
    return 0


def cmd_workspace(args) -> int:
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    params = resolve_params(args.config)
    seed = _default_seed(args)
    _bind("sample_workspace", "project_workspace", "points_to_csv")
    cloud = sample_workspace(params, args.n, seed=seed, coupled=args.coupled)
    if args.project:
        pts = project_workspace(cloud, args.project)
        text = points_to_csv(pts, ("u_mm", "v_mm"))
    else:
        text = points_to_csv(cloud.points, ("x_mm", "y_mm", "z_mm"))
    _emit(text, args, _manifest(args, params_to_dict(params), seed))
    return 0


def cmd_ucm_report(args) -> int:
    params = resolve_params(args.config)
    jac = transmission_jacobians(params)
    stiff = stiffness_matrices(params)
    rank = constraint_rank(params)
    ms = motion_subspaces(params)

    manifest = _manifest(args, params_to_dict(params))
    if args.format == "json":
        payload = {
            "serial_joint_jacobian": sig_list(jac.serial_joint),
            "parallel_jacobian": [sig_list(row) for row in jac.parallel],
            "constraint_rank": rank,
            "stable": rank == 3,
            "positive_definite": stiff.positive_definite,
            "min_stiffness_eigenvalue": sig(stiff.min_eigenvalue),
            "active_direction": sig_list(ms.active_direction),
            "passive_basis": [sig_list(row) for row in ms.passive_basis],
            "passive_plane": sig_list(ms.passive_normal),
            "active_force_row": sig_list(ms.active_force),
            "manifest": manifest,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"serial joint jacobian   {' '.join(fmt(v) for v in jac.serial_joint)}",
            "parallel jacobian       "
            + "; ".join(" ".join(fmt(v) for v in row) for row in jac.parallel),
            f"constraint rank         {rank}",
            f"stable                  {rank == 3}",
            f"positive definite       {stiff.positive_definite}",
            f"min stiffness eigval    {fmt(stiff.min_eigenvalue)}",
            f"active direction        {' '.join(fmt(v) for v in ms.active_direction)}",
            "passive basis           "
            + "; ".join(" ".join(fmt(v) for v in row) for row in ms.passive_basis),
            f"passive plane           {' '.join(fmt(v) for v in ms.passive_normal)}",
            f"active force row        {' '.join(fmt(v) for v in ms.active_force)}",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args, manifest)
    return 0


def _trace_records(trace) -> str:
    lines = []
    n = len(trace.steps)
    for i, step in enumerate(trace.steps):
        record = {
            "step": i,
            "a": sig(step.a),
            "q_deg": sig_list(map(math.degrees, step.joints.as_array())),
            "contacts": [
                {
                    "phalanx": c.phalanx,
                    "force_n": sig(c.force),
                    "gap_mm": sig(c.gap),
                }
                for c in step.contacts
            ],
            "energy": sig(step.energy),
            "status": trace.status if i == n - 1 and trace.error is None else "ok",
        }
        lines.append(json.dumps(record, sort_keys=True))
    if trace.error is not None:  # the step that failed, after the solved ones
        record = {"step": trace.error.step, "status": trace.status, "cause": str(trace.error.cause)}
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def _drive_schedule(a_max: float, steps: int) -> list:
    """``numpy.linspace(0.0, a_max, steps)`` on floats, bit for bit."""
    div = max(steps - 1, 1)
    step = a_max / div
    return [a_max if i == div else (i * step if step else i / div * a_max) + 0.0
            for i in range(steps)]


def cmd_envelop(args) -> int:
    params = resolve_params(args.config)
    try:
        center = [float(v) for v in args.center.split(",")]
    except ValueError:
        center = []
    if len(center) != 3:
        raise ValidationError(f"--center: expected x,y,z in mm, got {args.center!r}")
    if args.sphere_d <= 0:
        raise ValidationError("--sphere-d must be positive")
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    _bind("RigidObject", "envelop_sweep", "EquilibriumTrace")
    obj = RigidObject.sphere(tuple(center), args.sphere_d / 2.0)
    schedule = _drive_schedule(args.a_max, args.steps)
    try:
        trace = envelop_sweep(schedule, params, obj)
    except SweepError as exc:
        trace = EquilibriumTrace(steps=(), status="non-converged", error=exc)
    if trace.error is not None:
        print(f"error: {trace.error}", file=sys.stderr)
    _emit(_trace_records(trace), args, _manifest(args, params_to_dict(params)))
    return 2 if trace.status == "non-converged" else 0


def cmd_hand_fk(args) -> int:
    _bind("default_layout", "hand_fk", "load_layout")
    layout = default_layout() if args.layout == "default" else load_layout(args.layout)
    if args.joints == "zeros":
        states = [JointState() for _ in layout.fingers]
    else:
        doc = _read_json(args.joints, "--joints")
        _check(doc, {"$ref": "hand_layout.schema.json#/$defs/joints"}, "--joints")
        states = [JointState(*row) for row in doc]
    chains = hand_fk(states, layout)
    manifest = _manifest(args, {
        "fingers": [
            {"name": m.name, "kind": m.kind, "base": m.base.tolist(),
             "params": params_to_dict(m.params), "aa_spring": m.aa_spring}
            for m in layout.fingers
        ],
        "joints": [list(s.as_array()) for s in states],
    })
    if args.format == "json":
        payload = {
            "fingers": {
                mount.name: {"tip_mm": sig_list(chain.tip)}
                for mount, chain in zip(layout.fingers, chains)
            },
            "manifest": manifest,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["finger   tip_x_mm      tip_y_mm      tip_z_mm"]
        for mount, chain in zip(layout.fingers, chains):
            x, y, z = chain.tip
            lines.append(f"{mount.name:<8} {fmt(x):<13} {fmt(y):<13} {fmt(z)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args, manifest)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modhand",
        description="Modular dexterous finger models: differential drive, "
        "coupled flexion, compliant transmission analysis, workspace "
        "sampling, and quasi-static enveloping simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    dm = sub.add_parser("drive-map", help="two-motor drive to joint mapping")
    dm.add_argument("--a1", type=float, required=True, help="motor 1 angle, rad")
    dm.add_argument("--a2", type=float, required=True, help="motor 2 angle, rad")
    dm.add_argument("--config", default="default")
    dm.add_argument("--format", choices=("text", "json"), default="text")
    dm.add_argument("--out")
    dm.set_defaults(func=cmd_drive_map)

    ws = sub.add_parser("workspace", help="Monte Carlo fingertip cloud")
    ws.add_argument("--n", type=int, required=True, help="sample count")
    ws.add_argument("--seed", type=int, default=None)
    ws.add_argument("--coupled", action="store_true",
                    help="restrict distal joints to the rigid-coupling line")
    ws.add_argument("--project", choices=("xoy", "xoz", "yoz"))
    ws.add_argument("--config", default="default")
    ws.add_argument("--out")
    ws.set_defaults(func=cmd_workspace)

    ur = sub.add_parser("ucm-report", help="compliant transmission analysis")
    ur.add_argument("--config", default="default")
    ur.add_argument("--format", choices=("text", "json"), default="text")
    ur.add_argument("--out")
    ur.set_defaults(func=cmd_ucm_report)

    ev = sub.add_parser("envelop", help="quasi-static enveloping sweep")
    ev.add_argument("--config", default="default")
    ev.add_argument("--sphere-d", type=float, required=True, help="sphere diameter, mm")
    ev.add_argument("--center", required=True, help="sphere center as x,y,z (mm)")
    ev.add_argument("--a-max", type=float, required=True, help="final drive value")
    ev.add_argument("--steps", type=int, default=160)
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_envelop)

    hf = sub.add_parser("hand-fk", help="five-finger forward kinematics")
    hf.add_argument("--layout", default="default", help="layout file or 'default'")
    hf.add_argument("--joints", default="zeros",
                    help="JSON file with five [aa,q1,q2,q3] rows, or 'zeros'")
    hf.add_argument("--format", choices=("text", "json"), default="text")
    hf.add_argument("--out")
    hf.set_defaults(func=cmd_hand_fk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # solver non-convergence and 1 for bad input.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ModhandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
