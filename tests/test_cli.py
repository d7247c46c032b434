import argparse
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modhand import cli, grasp, kinematics
from modhand.cli import main
from modhand.params import params_to_dict, default_params

ENV_SPRINGS = str(Path(__file__).parent / "data" / "env_springs.json")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ucm_report_default(capsys):
    code, out, _ = run_cli(["ucm-report", "--config", "default"], capsys)
    assert code == 0
    assert "constraint rank         3" in out
    assert "positive definite       True" in out


def test_ucm_report_json(capsys):
    code, out, _ = run_cli(["ucm-report", "--config", "default", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["constraint_rank"] == 3
    assert payload["positive_definite"] is True
    assert payload["active_force_row"] == [15.125, 12.5, 8.0]


def test_workspace_rejects_zero_n(capsys):
    code, _, err = run_cli(["workspace", "--n", "0"], capsys)
    assert code == 1
    assert "--n" in err


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run_cli(["workspace", "--n", "5", "--frobnicate"], capsys)
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run_cli(["warp-drive"], capsys)
    assert code == 1


def test_workspace_deterministic_with_manifest(tmp_path, capsys):
    out1 = tmp_path / "cloud1.csv"
    out2 = tmp_path / "cloud2.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            ["workspace", "--n", "200", "--seed", "5", "--out", str(out)], capsys
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "cloud1.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "cloud2.csv.manifest.json").read_text())
    assert m1["config_digest"] == m2["config_digest"]
    assert m1["seed"] == 5
    assert m1["subcommand"] == "workspace"
    assert m1["outputs"] == [str(out1)]


def test_workspace_csv_header_and_projection(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    run_cli(["workspace", "--n", "10", "--seed", "1", "--out", str(out)], capsys)
    assert out.read_text().splitlines()[0] == "x_mm,y_mm,z_mm"
    run_cli(
        ["workspace", "--n", "10", "--seed", "1", "--project", "xoy", "--out", str(out)],
        capsys,
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "u_mm,v_mm"
    assert len(lines) == 11


def test_ucm_seed_env_override(tmp_path, capsys, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    monkeypatch.setenv("UCM_SEED", "77")
    run_cli(["workspace", "--n", "50", "--out", str(out_a)], capsys)
    monkeypatch.delenv("UCM_SEED")
    run_cli(["workspace", "--n", "50", "--seed", "77", "--out", str(out_b)], capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_workspace_bad_out_fails_before_sampling(tmp_path, capsys, monkeypatch):
    # --out is opened before the cloud is sampled: a path that cannot be
    # written fails at once, with no tip computed and no manifest written.
    calls = []
    monkeypatch.setattr(kinematics, "_cloud_tips", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "c.csv"
    code, stdout, err = run_cli(["workspace", "--n", "100000", "--out", str(out)], capsys)
    assert (code, stdout, calls) == (1, "", [])
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_malformed_ucm_seed_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("UCM_SEED", "abc")
    code, out, err = run_cli(["workspace", "--n", "3"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: UCM_SEED: expected an integer, got 'abc'\n"


def test_drive_map_json(capsys):
    code, out, _ = run_cli(
        ["drive-map", "--a1", "1", "--a2", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_rad"][0] == pytest.approx(13.0 / 24.0, abs=1e-9)
    assert payload["theta_rad"][1] == 0.0


def test_drive_map_rigid_chain(capsys):
    code, out, _ = run_cli(
        ["drive-map", "--a1", "1", "--a2", "-1", "--format", "json"], capsys
    )
    # values pass through the 9-significant-digit output format
    payload = json.loads(out)
    q1, q2, q3 = payload["rigid_flexion_rad"]
    assert q2 == pytest.approx(q1 * 7.0 / 6.0, rel=1e-8)
    assert q3 == pytest.approx(q1 * 0.7, rel=1e-8)


@pytest.mark.parametrize("radius", [1e200, 1e-200])
def test_extreme_equal_coupling_radii_couple_the_joints_one_to_one(tmp_path, capsys, radius):
    config = tmp_path / "finger.json"
    config.write_text(json.dumps({"coupling_radii_mm": [radius] * 3}), encoding="utf-8")
    code, out, _ = run_cli(["drive-map", "--a1", "1", "--a2", "-1", "--config", str(config)],
                           capsys)
    assert code == 0
    rows = dict(line.split() for line in out.splitlines())
    q1, q2, q3 = (float(rows[f"q{i}_rad"]) for i in (1, 2, 3))
    assert math.isfinite(q1) and q1 != 0.0 and q2 == q3 == q1
    code, out, _ = run_cli(["workspace", "--n", "50", "--coupled", "--config", str(config)],
                           capsys)
    assert code == 0
    assert len(out.splitlines()) == 51 and "nan" not in out


def test_envelop_infeasible_exits_2(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, _, err = run_cli(
        [
            "envelop",
            "--sphere-d", "20",
            "--center", "20,3,0",
            "--a-max", "10",
            "--steps", "20",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1]["status"] == "non-converged"
    assert err.startswith(
        "error: sweep failed at step 0: initial configuration penetrates"
    )


def test_envelop_successful_trace(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        [
            "envelop",
            "--config", ENV_SPRINGS,
            "--sphere-d", "40",
            "--center", "34,28,0",
            "--a-max", "27.5",
            "--steps", "160",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 160
    assert records[-1]["status"] == "completed"
    final_forces = [c["force_n"] for c in records[-1]["contacts"]]
    assert sum(1 for f in final_forces if f > 0) >= 3
    assert all(len(r["q_deg"]) == 4 for r in records)


def test_envelop_limit_saturated_exits_0(capsys):
    # Out of reach: every flexion joint ends on its 100 deg stop.
    code, out, err = run_cli(["envelop", "--sphere-d", "10", "--center", "500,500,0",
                              "--a-max", "120", "--steps", "80"], capsys)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 69
    assert records[-1]["status"] == "limit-saturated"
    assert records[-1]["q_deg"][1:] == [100.0, 100.0, 100.0]
    assert all(r["status"] == "ok" for r in records[:-1])


def test_envelop_names_the_failing_step_and_cause(tmp_path, capsys):
    # A small sphere that the distal phalanx grazes: the solver fails at
    # step 116, at a fold of the quasi-static branch, where its QPs rest on
    # a vertex with multipliers near 1e9 and the iteration runs to its cap.
    # The solved steps stay "ok", and a final record and stderr name the
    # failing step and why it failed.
    out = tmp_path / "trace.jsonl"
    code, _, err = run_cli(
        [
            "envelop",
            "--config", ENV_SPRINGS,
            "--sphere-d", "8",
            "--center", "70,30,0",
            "--a-max", "60",
            "--steps", "150",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(117))
    assert all(r["status"] == "ok" for r in records[:-1])
    cause = "equilibrium iteration cap reached"
    assert records[-1] == {"step": 116, "status": "non-converged", "cause": cause}
    assert err == f"error: sweep failed at step 116: {cause}\n"


# Every name the package exports, by module.
PACKAGE_EXPORTS = {
    "drive": "coupling_residual drive_to_mcp mcp_to_drive rigid_coupled_flexion",
    "errors": "ConfigSchemaError InfeasibleStartError ModhandError NonConvergedError "
              "PreconditionError SingularStiffnessError SweepError ValidationError",
    "grasp": "Contact EquilibriumTrace RigidObject detect_contacts elastic_energy "
             "elastic_energy_gradient envelop_sweep equilibrium_solve",
    "hand": "HandLayout FingerMount default_layout hand_fk hand_workspace load_layout",
    "kinematics": "FingerPoseChain forward_kinematics points_to_csv "
                  "project_workspace sample_workspace",
    "params": "CouplingModel DifferentialTrain DriveState FingerParams JointState "
              "PlanetaryState default_params load_params params_from_dict params_to_dict "
              "resolve_params text_ratio_params",
    "ucm": "MotionSubspaces StiffnessSet TransmissionJacobians TransmissionState "
           "constraint_rank motion_subspaces stiffness_matrices "
           "transmission_jacobians transmission_state",
}


def test_cli_import_leaves_the_grasp_solver_unloaded():
    # In a fresh process: the CLI's import does not load the grasp solver,
    # the package exports exactly the table's names, and each resolves, on
    # first access, to the object its module defines.
    script = """
import importlib, json, sys
import modhand.cli
loaded = "modhand.grasp" in sys.modules
import modhand
differ = [name for module, names in json.loads(sys.argv[1]).items() for name in names.split()
          if getattr(modhand, name)
          is not getattr(importlib.import_module("modhand." + module), name)]
print(json.dumps([loaded, modhand.__all__, differ]))
"""
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(PACKAGE_EXPORTS)],
                          capture_output=True, text=True, check=True)
    names = sorted(name for names in PACKAGE_EXPORTS.values() for name in names.split())
    assert json.loads(proc.stdout) == [False, names, []]


# Each run, in a fresh process: its argv (None imports the CLI alone), the
# modules it loads beyond the CLI's own, and whether it loads numpy.
RUN_LOADS = [
    pytest.param(None, "", False, id="import"),
    pytest.param(["drive-map", "--a1", "0.3", "--a2", "-0.2"], "drive", False, id="drive-map"),
    pytest.param(["drive-map", "--a1", "0.3", "--a2", "-0.2", "--format", "json"], "drive", False,
                 id="drive-map-json"),
    pytest.param(["ucm-report"], "ucm", False, id="ucm-report"),
    pytest.param(["ucm-report", "--format", "json"], "ucm", False, id="ucm-report-json"),
    pytest.param(["ucm-report", "--config", "text-ratio"], "ucm", False,
                 id="ucm-report-text-ratio"),
    pytest.param(["ucm-report", "--config", "text-ratio", "--format", "json"], "ucm", False,
                 id="ucm-report-text-ratio-json"),
    pytest.param(["envelop", "--sphere-d", "40", "--center", "34,28,0", "--a-max", "27.5",
                  "--steps", "20"], "ucm grasp", False, id="envelop"),
    pytest.param(["hand-fk"], "drive kinematics hand", True, id="hand-fk"),
    pytest.param(["workspace", "--n", "3", "--seed", "0"], "drive kinematics", True,
                 id="workspace"),
]


@pytest.mark.parametrize("argv, modules, numpy_loaded", RUN_LOADS)
def test_each_run_loads_only_its_modules(argv, modules, numpy_loaded):
    # The CLI imports only what every subcommand uses and binds the rest on
    # first use: drive-map, ucm-report and envelop compute on floats without
    # numpy, and no run loads another subcommand's modules.  Stdout is text
    # over a byte buffer, as a real one is: workspace writes to the buffer.
    script = """
import contextlib, io, json, sys
from modhand import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
    code = 0 if argv is None else cli.main(argv)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "modhand")
print(json.dumps([code, loaded, "numpy" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    expected = sorted({"modhand", "modhand.cli", "modhand.params", "modhand.errors",
                       "modhand.floats", *(f"modhand.{m}" for m in modules.split())})
    assert json.loads(proc.stdout) == [0, expected, numpy_loaded]


def test_one_block_workspace_starts_no_thread():
    # In a fresh process: a cloud of one block runs in the calling thread and
    # loads no executor; a cloud of three blocks starts the block pool.
    script = """
import contextlib, io, json, sys, threading
from modhand import cli
seen = []
for n in ("2000", "10000"):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        code = cli.main(["workspace", "--n", n])
    seen.append([code, "concurrent.futures" in sys.modules, threading.active_count()])
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    (one_code, one_loaded, one_threads), (many_code, many_loaded, many_threads) = json.loads(
        proc.stdout)
    assert (one_code, one_loaded, one_threads) == (0, False, 1)
    assert (many_code, many_loaded) == (0, True) and many_threads > 1


def test_array_subcommands_call_the_names_bound_on_the_cli_module():
    # In a fresh process, as a tracer wraps them: the library names resolve
    # on the CLI module without its import loading their modules, a wrapper
    # set there is what the subcommand calls, and restoring it holds.
    script = """
import contextlib, io, json, sys
import modhand.cli as cli
unloaded = not {"modhand." + m for m in ("drive", "ucm", "kinematics", "hand")} & set(sys.modules)
from modhand import drive, hand, kinematics, ucm
names = {"drive_to_mcp": drive, "stiffness_matrices": ucm, "sample_workspace": kinematics,
         "points_to_csv": kinematics, "hand_fk": hand}
resolved = all(getattr(cli, name) is getattr(module, name) for name, module in names.items())
runs = {"sample_workspace": ["workspace", "--n", "3", "--seed", "0"],
        "drive_to_mcp": ["drive-map", "--a1", "0.3", "--a2", "-0.2"],
        "stiffness_matrices": ["ucm-report"]}
codes, calls, restored = [], [], []
for name, argv in runs.items():
    original = getattr(cli, name)
    def wrapper(*args, name=name, original=original, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    setattr(cli, name, wrapper)
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        codes.append(cli.main(argv))
        setattr(cli, name, original)
        codes.append(cli.main(argv))
    restored.append(getattr(cli, name) is original)
print(json.dumps([unloaded, resolved, codes, calls, restored]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    wrapped = ["sample_workspace", "drive_to_mcp", "stiffness_matrices"]
    assert json.loads(proc.stdout) == [True, True, [0] * 6, wrapped, [True] * 3]


def test_grasp_resolves_the_forward_kinematics_wrap_point():
    # In a fresh process, as the benchmark's tracer wraps it: the name
    # resolves on the grasp module without its import loading kinematics, a
    # wrapper set there is what the module holds, and restoring it holds.
    script = """
import json, sys
import modhand.grasp as grasp
unloaded = "modhand.kinematics" not in sys.modules
from modhand import kinematics
original = getattr(grasp, "forward_kinematics")
resolved = original is kinematics.forward_kinematics
def wrapper(*args, **kwargs):
    return original(*args, **kwargs)
setattr(grasp, "forward_kinematics", wrapper)
wrapped = grasp.forward_kinematics is wrapper
setattr(grasp, "forward_kinematics", original)
missing = not hasattr(grasp, "sample_workspace")
print(json.dumps([unloaded, resolved, wrapped, grasp.forward_kinematics is original, missing]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == [True, True, True, True, True]


def test_envelop_schedule_has_linspace_bits():
    # envelop's drive schedule is numpy.linspace(0, a_max, steps) built on
    # floats: every value has linspace's bits, compared as hex.
    cases = [(a_max, steps) for steps in (1, 2, 3, 7, 20, 40, 150, 160, 1000)
             for a_max in (0.0, -0.0, 27.5, 46.0, 1 / 3, 1e-310, 5e-324, 1e308, -3.0,
                           math.inf, math.nan)]
    rng = random.Random(3)
    for _ in range(3036):
        a_max = rng.choice([rng.uniform(-100.0, 100.0), rng.uniform(0.0, 60.0),
                            math.copysign(10.0 ** rng.uniform(-323.0, 308.0), rng.random() - 0.5)])
        cases.append((a_max, rng.randint(1, 400)))
    with np.errstate(invalid="ignore", over="ignore"):
        for a_max, steps in cases:
            expected = [v.hex() for v in np.linspace(0.0, a_max, steps).tolist()]
            assert [v.hex() for v in cli._drive_schedule(a_max, steps)] == expected, (a_max, steps)


def test_non_finite_qp_point_ends_the_sweep_non_converged(monkeypatch, capsys):
    # A QP point that is not finite fails its step with a named cause: the
    # solved steps are kept and envelop exits 2, as for any non-convergence.
    solve_qp, calls = grasp._solve_qp, []

    def poisoned(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        calls.append(sol)
        return sol if sol is None or len(calls) < 10 else ((math.nan,) * 3, *sol[1:])

    monkeypatch.setattr(grasp, "_solve_qp", poisoned)
    code, out, err = run_cli(["envelop", "--sphere-d", "40", "--center", "34,28,0",
                              "--a-max", "27.5", "--steps", "40"], capsys)
    records = [json.loads(line) for line in out.splitlines()]
    step, cause = records[-1]["step"], "QP returned a non-finite iterate"
    assert code == 2 and step > 0
    assert [r["step"] for r in records] == list(range(step + 1))
    assert records[-1] == {"step": step, "status": "non-converged", "cause": cause}
    assert err == f"error: sweep failed at step {step}: {cause}\n"


def test_envelop_validates_center(capsys):
    code, _, err = run_cli(
        ["envelop", "--sphere-d", "20", "--center", "1,2", "--a-max", "5"], capsys
    )
    assert code == 1
    assert "--center" in err


def test_hand_fk_text(capsys):
    code, out, _ = run_cli(["hand-fk"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("finger")
    assert len(out.splitlines()) == 6


def test_hand_fk_joints_file(tmp_path, capsys):
    joints = tmp_path / "joints.json"
    joints.write_text(json.dumps([[0, 0.5, 0.3, 0.2]] * 5), encoding="utf-8")
    code, out, _ = run_cli(
        ["hand-fk", "--joints", str(joints), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["fingers"]) == {"thumb", "index", "middle", "ring", "little"}


def _layout(index, **entry):
    """A five-finger layout document with ``entry`` merged into one finger."""
    fingers = [
        {"name": name, "kind": "active-modular"} for name in ("thumb", "index", "middle")
    ] + [
        {"name": name, "kind": "auxiliary-passive-aa", "aa_spring": 150.0}
        for name in ("ring", "little")
    ]
    fingers[index].update(entry)
    return json.dumps({"fingers": fingers})


@pytest.mark.parametrize(
    "argv, text",
    [
        (["ucm-report", "--config"], json.dumps(params_to_dict(default_params()))),
        (["hand-fk", "--layout"], _layout(0)),
    ],
    ids=["config", "layout"],
)
def test_input_path_beginning_with_a_brace_names_a_file(tmp_path, monkeypatch, capsys, argv, text):
    # Inputs are files: a relative path such as "{finger}.json" is read, not
    # parsed as JSON text, and reports what the same file under a plain name does.
    monkeypatch.chdir(tmp_path)
    for name in ("{finger}.json", "finger.json"):
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run_cli(argv + ["{finger}.json"], capsys)
    assert (code, err) == (0, "")
    assert out == run_cli(argv + ["finger.json"], capsys)[1]


ENVELOP = ["envelop", "--sphere-d", "20"]
MISSING = object()  # names an input file that is never written


@pytest.mark.parametrize(
    "text, argv, error",
    [
        (json.dumps([[0, 0, 0]] * 5), ["hand-fk", "--joints"], "--joints[0]: "),
        (json.dumps({"coupling_radii_mm": [1e300, 1e-10, 1.0]}),
         ["drive-map", "--a1", "1", "--a2", "-1", "--config"], "coupling_radii (1e+300, "),
        (json.dumps([[0, "0.5", 0, 0]] * 5), ["hand-fk", "--joints"], "--joints[0][1]: "),
        ("[[0, 0, 0, 0],", ["hand-fk", "--joints"], "--joints: invalid JSON"),
        (MISSING, ["hand-fk", "--joints"], "--joints: cannot read "),
        (MISSING, ["hand-fk", "--layout"], "<file>: cannot read "),
        (
            _layout(0, base={"translation": [1.0, 2.0]}),
            ["hand-fk", "--layout"],
            "fingers[0].base.translation: ",
        ),
        (_layout(3, aa_spring="stiff"), ["hand-fk", "--layout"], "fingers[3].aa_spring: "),
        (
            _layout(1, base={"translation": [0.0, math.nan, 0.0]}),
            ["hand-fk", "--layout"],
            "index: base must be a finite 4x4 transform",
        ),
        (
            _layout(2, base={"angle": "1e400deg"}),
            ["hand-fk", "--layout"],
            "rotation angle must be finite",
        ),
        (None, ENVELOP + ["--a-max", "5", "--center", "30,a,0"], "--center: "),
        (None, ENVELOP + ["--a-max", "5", "--center", "nan,0,0"], "sphere center must be finite"),
        (None, ENVELOP + ["--a-max", "nan", "--center", "60,10,0"], "drive schedule must be finite"),
        (None, ["envelop", "--sphere-d", "0", "--a-max", "5", "--center", "60,10,0"],
         "--sphere-d must be positive"),
        (None, ENVELOP + ["--a-max", "5", "--center", "60,10,0", "--steps", "0"],
         "--steps must be >= 1"),
        # radii whose stiffness terms kp r^2 or ks s^2 overflow or underflow
        (json.dumps({"coupling_radii_mm": [1e200] * 3}), ["ucm-report", "--config"],
         "coupling_radii (1e+200, 1e+200, 1e+200) with spring_parallel "),
        (json.dumps({"coupling_radii_mm": [1e-200] * 3}), ["ucm-report", "--config"],
         "coupling_radii (1e-200, 1e-200, 1e-200) with spring_parallel "),
        (json.dumps({"coupling_radii_mm": [1e200] * 3}),
         ENVELOP + ["--a-max", "5", "--center", "60,10,0", "--config"], "coupling_radii (1e+200, "),
        (json.dumps({"coupling_radii_mm": [1e-200] * 3}),
         ENVELOP + ["--a-max", "5", "--center", "60,10,0", "--config"], "coupling_radii (1e-200, "),
        (json.dumps({"drive_radii_mm": [1e200] * 3}), ["ucm-report", "--config"],
         "drive_radii (1e+200, 1e+200, 1e+200) with spring_serial "),
    ],
    ids=["short-row", "overflowing-ratio", "string-entry", "bad-json", "missing-joints",
         "missing-layout", "short-translation", "string-spring", "nan-translation", "inf-angle",
         "bad-center", "nan-center", "nan-drive", "zero-diameter", "zero-steps",
         "overflowing-stiffness", "underflowing-stiffness", "overflowing-stiffness-envelop",
         "underflowing-stiffness-envelop", "overflowing-serial-stiffness"],
)
def test_bad_outside_input_exits_1(tmp_path, capsys, text, argv, error):
    if text is not None:
        path = tmp_path / "input.json"
        if text is not MISSING:
            path.write_text(text, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {error}")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modhand.cli", "drive-map", "--a1", "0", "--a2", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "theta1_rad" in proc.stdout


def test_identical_argv_byte_identical_stdout():
    argv = [sys.executable, "-m", "modhand.cli", "ucm-report", "--format", "json"]
    a = subprocess.run(argv, capture_output=True).stdout
    b = subprocess.run(argv, capture_output=True).stdout
    assert a == b


# Each subcommand's required options, then one changed option per case: two
# runs that differ only in that option must write different manifests.
MANIFEST_BASE = {
    "drive-map": ["drive-map", "--a1", "0.1", "--a2", "0.2"],
    "workspace": ["workspace", "--n", "3"],
    "ucm-report": ["ucm-report"],
    "envelop": ["envelop", "--sphere-d", "20", "--center", "200,0,0", "--a-max", "1",
                "--steps", "2"],
    "hand-fk": ["hand-fk"],
}
LAYOUT_FILE, JOINTS_FILE = object(), object()  # written to tmp_path by the test
MANIFEST_VARIANTS = [
    ("drive-map", "--a1", "0.3"),
    ("drive-map", "--a2", "0.4"),
    ("drive-map", "--config", "text-ratio"),
    ("drive-map", "--format", "json"),
    ("workspace", "--n", "4"),
    ("workspace", "--seed", "9"),
    ("workspace", "--coupled", None),
    ("workspace", "--project", "xoy"),
    ("workspace", "--config", "text-ratio"),
    ("ucm-report", "--config", "text-ratio"),
    ("ucm-report", "--format", "json"),
    ("envelop", "--config", "text-ratio"),
    ("envelop", "--sphere-d", "30"),
    ("envelop", "--center", "210,0,0"),
    ("envelop", "--a-max", "2"),
    ("envelop", "--steps", "3"),
    ("hand-fk", "--layout", LAYOUT_FILE),
    ("hand-fk", "--joints", JOINTS_FILE),
    ("hand-fk", "--format", "json"),
]


def _with_option(argv, option, value):
    """``argv`` with ``option`` set to ``value`` (a flag when None)."""
    if option in argv:
        i = argv.index(option)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [option] + ([] if value is None else [value])


def _manifest_of(argv, out, capsys):
    run_cli(argv + ["--out", str(out)], capsys)
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())


def test_manifest_variants_cover_every_option():
    from modhand.cli import build_parser

    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        (name, opt)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help", "--out")
    }
    assert options == {(name, opt) for name, opt, _ in MANIFEST_VARIANTS}


@pytest.mark.parametrize(
    "command, option, value", MANIFEST_VARIANTS,
    ids=[f"{c}{o}" for c, o, _ in MANIFEST_VARIANTS],
)
def test_every_option_changes_the_manifest(tmp_path, capsys, monkeypatch,
                                           command, option, value):
    monkeypatch.delenv("UCM_SEED", raising=False)
    if value is LAYOUT_FILE:
        value = tmp_path / "layout.json"
        value.write_text(_layout(0), encoding="utf-8")
    elif value is JOINTS_FILE:
        value = tmp_path / "joints.json"
        value.write_text(json.dumps([[0, 0.5, 0.3, 0.2]] * 5), encoding="utf-8")
    out = tmp_path / "result.out"
    base = MANIFEST_BASE[command]
    before = _manifest_of(base, out, capsys)
    after = _manifest_of(_with_option(base, option, None if value is None else str(value)),
                         out, capsys)
    assert before["subcommand"] == after["subcommand"] == command
    assert before != after


@pytest.mark.parametrize(
    "option, old, new",
    [
        ("--layout", _layout(3, aa_spring=150.0), _layout(3, aa_spring=160.0)),
        ("--joints", json.dumps([[0, 0.5, 0.3, 0.2]] * 5),
         json.dumps([[0, 0.5, 0.3, 0.25]] * 5)),
    ],
    ids=["layout", "joints"],
)
def test_hand_fk_digest_follows_file_content(tmp_path, capsys, option, old, new):
    path, out = tmp_path / "input.json", tmp_path / "fk.txt"
    digests = []
    for text in (old, new):
        path.write_text(text, encoding="utf-8")
        digests.append(_manifest_of(["hand-fk", option, str(path)], out, capsys)["config_digest"])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("argv", [
    ["drive-map", "--a1", "0.1", "--a2", "0.2"], ["ucm-report"], ["hand-fk"],
], ids=lambda argv: argv[0])
def test_embedded_manifest_matches_manifest_file(tmp_path, capsys, argv):
    out = tmp_path / "result.json"
    manifest = _manifest_of(argv + ["--format", "json"], out, capsys)
    assert json.loads(out.read_text())["manifest"] == manifest
    assert manifest["outputs"] == [str(out)]
