"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one operation at a time
(a closed loop with one client: the next operation starts when the previous
one has returned), times only the call into the program, and checks every
output.  An operation's digest must repeat on every pass of a run, traced or
not, so the digests double as the determinism check and the tracer self-test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import reference as ref

PENETRATION_TOL = 1e-6     # mm
COMPLEMENTARITY_TOL = 1e-6  # N*mm
MAX_PROBLEMS_PER_OP = 5


@dataclass
class Outcome:
    seconds: float   # wall time of the call into the program
    work: int        # units of the workload's work the call did
    digest: str      # sha256 of the output at full precision
    problems: list = field(default_factory=list)  # failed output checks
    status: str = ""  # a sweep's termination status
    # The operation failed although its output is right: a sweep that
    # reports it did not converge.  Counted as failed, not as incorrect.
    failed: bool = False


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digest(doc: dict) -> str:
    """Digest of a configuration document as the run manifests define it."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8"))


def sig(x) -> float:
    """A value as the CLI prints it: 9 significant digits."""
    return float(f"{float(x):.9g}")


def sig_list(values) -> list:
    return [sig(v) for v in np.asarray(values, dtype=float).ravel()]


def numbers_in(text: str) -> list:
    """Every token of a text report that parses as a number, in order."""
    out = []
    for token in text.replace(";", " ").split():
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


def check_csv_cloud(path, header, n, rows, expect_row) -> tuple:
    """Problems found in a workspace CSV, and its sha256.

    ``expect_row(i)`` gives the reference values of row ``i``; only the
    sampled ``rows`` are compared, every row is counted."""
    data = path.read_bytes()
    lines = data.decode("utf-8").split("\n")
    problems = []
    if lines[0] != header:
        problems.append(f"{path.name}: header {lines[0]!r}, expected {header!r}")
    if lines[-1] != "" or len(lines) - 2 != n:
        problems.append(f"{path.name}: {len(lines) - 2} rows, expected {n}")
        return problems, sha256(data)
    for i in rows:
        got = [float(t) for t in lines[i + 1].split(",")]
        want = expect_row(i)
        if len(got) != len(want) or not all(
            ref.matches_9_digits(g, w) for g, w in zip(got, want)
        ):
            problems.append(f"{path.name}: row {i} is {got}, reference {list(want)}")
            if len(problems) >= MAX_PROBLEMS_PER_OP:
                break
    return problems, sha256(data)


def check_manifest(path, subcommand, seed, digest, version) -> list:
    manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
    want = {
        "subcommand": subcommand,
        "seed": seed,
        "config_digest": digest,
        "version": version,
        "outputs": [str(path)],
    }
    return [
        f"{path.name} manifest: {key} is {manifest.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if manifest.get(key) != value
    ]


class Envelop:
    """Quasi-static enveloping sweeps through the library API.

    The grasp solver and scalar FK do almost all the work; batch FK, the
    splitmix64 stream and CSV output stay idle.  The three documented sphere
    scenes, the ejection scene and a half-space ceiling.  The seed moves the
    three sphere centres by x in [-0.5, 0.5] mm and y in [0, 0.5] mm (outward
    only: an inward move can start the finger inside the sphere); seed 0 runs
    the documented scenes unchanged.  The ejection scene and the ceiling stay
    fixed, so every run reports the documented ejection scene's status.
    """

    work_unit = "equilibrium steps"

    def __init__(self, modules, seed, workdir):
        self.grasp = modules["modhand.grasp"]
        base = modules["modhand.params"].default_params()
        springs = replace(base, spring_serial=200.0, spring_parallel=(300.0, 300.0, 0.2))
        rng = random.Random(seed)

        def sphere(center, diameter, moved=True):
            x, y, z = center
            if seed and moved:
                x += rng.uniform(-0.5, 0.5)
                y += rng.uniform(0.0, 0.5)
            return self.grasp.RigidObject.sphere((x, y, z), diameter / 2.0)

        ceiling = self.grasp.RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -1.0, 0.0))
        # label -> (params, object, drive schedule, whether the status is gated)
        self.scenes = {
            "sweep_30mm": (springs, sphere((33.0, 27.0, 0.0), 30.0), np.linspace(0.0, 46.0, 160), True),
            "sweep_40mm": (springs, sphere((34.0, 28.0, 0.0), 40.0), np.linspace(0.0, 27.5, 160), True),
            "sweep_50mm": (springs, sphere((32.0, 34.5, 0.0), 50.0), np.linspace(0.0, 22.5, 160), True),
            # Whether this scene ends `ejected` or `completed` is an open
            # defect of the solver; its status is reported, never gated.
            "sweep_eject": (springs, sphere((50.0, 20.0, 0.0), 16.0, moved=False), np.linspace(0.0, 60.0, 150), False),
            "sweep_ceiling": (base, ceiling, np.linspace(0.0, 16.0, 160), True),
        }
        self.labels = tuple(self.scenes)

    def run(self, label, traced=False) -> Outcome:
        params, obj, schedule, gated = self.scenes[label]
        t0 = perf_counter()
        trace = self.grasp.envelop_sweep(schedule, params, obj)
        seconds = perf_counter() - t0

        problems = []
        digest = hashlib.sha256()
        for i, step in enumerate(trace.steps):
            joints = step.joints.as_array()
            digest.update(repr(([float(v).hex() for v in joints],
                                [c.phalanx for c in step.contacts])).encode())
            if not step.joints.within_limits(params):
                problems.append(f"{label} step {i}: joints {list(joints)} outside limits")
            if not math.isfinite(step.energy):
                problems.append(f"{label} step {i}: energy {step.energy}")
            for c in step.contacts:
                if (c.gap < -PENETRATION_TOL or c.force < 0.0
                        or abs(c.force * c.gap) > COMPLEMENTARITY_TOL):
                    problems.append(
                        f"{label} step {i}: phalanx {c.phalanx} gap {c.gap!r} force {c.force!r}"
                    )
        digest.update(trace.status.encode())
        return Outcome(seconds, len(trace.steps), digest.hexdigest(),
                       problems[:MAX_PROBLEMS_PER_OP], trace.status,
                       failed=gated and trace.status == "non-converged")


class Workspace:
    """Monte Carlo fingertip clouds: two CLI runs and a hand union cloud.

    The splitmix64 loop, batch FK and CSV output do all the work; the grasp
    solver is never called.  Batch FK here is the same kinematics layer that
    `envelop` reaches through scalar FK.
    """

    work_unit = "fingertip points"
    N = 100000
    HAND_N = 20000
    SAMPLED_ROWS = 64

    def __init__(self, modules, seed, workdir):
        self.cli = modules["modhand.cli"]
        self.hand = modules["modhand.hand"]
        params_mod = modules["modhand.params"]
        params = params_mod.default_params()
        self.seed = seed
        self.layout = self.hand.default_layout()
        self.limits = params.joint_limits
        self.links = params.link_lengths
        r0, r1, r2 = params.coupling_model().ratio
        (_, _), (lo1, hi1), (lo2, hi2), (lo3, hi3) = self.limits
        lo = max(lo1, lo2 * r0 / r1, lo3 * r0 / r2)
        hi = min(hi1, hi2 * r0 / r1, hi3 * r0 / r2)
        self.coupled_line = (lo, hi, r0, r1, r2)
        self.config_digest = config_digest(params_mod.params_to_dict(params))
        self.version = modules["modhand"].__version__
        self.out = {
            "cli_workspace_free": workdir / "cloud.csv",
            "cli_workspace_coupled_xoy": workdir / "cloud_xoy.csv",
        }
        common = ["workspace", "--n", str(self.N), "--seed", str(seed)]
        self.argv = {
            "cli_workspace_free": common + ["--out", str(self.out["cli_workspace_free"])],
            "cli_workspace_coupled_xoy": common + [
                "--coupled", "--project", "xoy",
                "--out", str(self.out["cli_workspace_coupled_xoy"]),
            ],
        }
        rng = random.Random(seed)
        self.rows = sorted(rng.sample(range(self.N), self.SAMPLED_ROWS))
        self.hand_rows = sorted(rng.sample(range(self.HAND_N), self.SAMPLED_ROWS // 4))
        self.labels = ("cli_workspace_free", "cli_workspace_coupled_xoy", "hand_workspace")

    def run(self, label, traced=False) -> Outcome:
        if label == "hand_workspace":
            return self._run_hand()
        t0 = perf_counter()
        code = self.cli.main(self.argv[label])
        seconds = perf_counter() - t0
        if code != 0:
            return Outcome(seconds, 0, "", [f"{label}: exit code {code}"])

        path = self.out[label]
        if label == "cli_workspace_free":
            header = "x_mm,y_mm,z_mm"
            expect = lambda i: ref.fingertip(
                ref.workspace_joints(self.seed, i, self.limits), self.links)
        else:
            header = "u_mm,v_mm"
            expect = lambda i: ref.fingertip(
                ref.workspace_joints(self.seed, i, self.limits, self.coupled_line),
                self.links)[:2]
        problems, digest = check_csv_cloud(path, header, self.N, self.rows, expect)
        problems += check_manifest(path, "workspace", self.seed, self.config_digest, self.version)
        return Outcome(seconds, self.N, digest, problems)

    def _run_hand(self) -> Outcome:
        t0 = perf_counter()
        clouds, union = self.hand.hand_workspace(self.layout, self.HAND_N, self.seed)
        seconds = perf_counter() - t0

        problems = []
        if not np.array_equal(union, np.vstack([clouds[m.name] for m in self.layout.fingers])):
            problems.append("hand_workspace: union is not the finger clouds in layout order")
        for index, mount in enumerate(self.layout.fingers):
            sub = ref.subseed(self.seed, index)
            rot, shift = mount.base[:3, :3].tolist(), mount.base[:3, 3].tolist()
            for i in self.hand_rows:
                local = ref.fingertip(
                    ref.workspace_joints(sub, i, mount.params.joint_limits),
                    mount.params.link_lengths)
                want = [sum(r[k] * local[k] for k in range(3)) + t for r, t in zip(rot, shift)]
                got = clouds[mount.name][i].tolist()
                if not all(ref.matches_9_digits(g, w) for g, w in zip(got, want)):
                    problems.append(f"hand_workspace {mount.name} row {i}: {got}, reference {want}")
        digest = sha256(np.ascontiguousarray(union).tobytes())
        return Outcome(seconds, union.shape[0], digest, problems[:MAX_PROBLEMS_PER_OP])


def parse_importtime(stderr: str) -> dict:
    """Import seconds from ``python -X importtime``: all top-level imports,
    numpy's cumulative share, and modhand's own share (numpy excluded when
    modhand is what imported it)."""
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = sum(cum for depth, _, cum in entries if depth == 0)
    numpy_at = next((i for i, e in enumerate(entries) if e[1] == "numpy"), None)
    numpy_s = entries[numpy_at][2] if numpy_at is not None else 0.0
    modhand_s = 0.0
    for i, (depth, name, cum) in enumerate(entries):
        if depth == 0 and name == "modhand":
            inside = numpy_at is not None and numpy_at < i and all(
                e[0] > 0 for e in entries[numpy_at:i])
            modhand_s = cum - (numpy_s if inside else 0.0)
    return {"total": total, "numpy": numpy_s, "modhand": modhand_s}


class Cli:
    """Short CLI reports, each in a fresh `python -m modhand.cli` process.

    Interpreter and import start-up dominate; the numeric layers are nearly
    idle.  Each call's exit code must be 0 and its output must equal the
    library's in-process result.
    """

    work_unit = "CLI calls"
    WORKSPACE_N = 2000
    SHORT_CALLS = ("drive_map", "ucm", "hand_fk")  # label prefixes of start-up-bound calls

    def __init__(self, modules, seed, workdir):
        self.cli = modules["modhand.cli"]
        params_mod = modules["modhand.params"]
        drive, ucm, hand = (modules[f"modhand.{m}"] for m in ("drive", "ucm", "hand"))
        version = modules["modhand"].__version__
        self.workdir = workdir
        src = os.path.dirname(os.path.dirname(modules["modhand"].__file__))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.peak_rss_kb = 0
        self.imports = []

        rng = random.Random(seed)
        a1, a2 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        params = params_mod.default_params()
        joints = [[rng.uniform(lo, hi) for lo, hi in params.joint_limits] for _ in range(5)]
        joints_path = workdir / "joints.json"
        joints_path.write_text(json.dumps(joints))
        csv_path = workdir / "cloud.csv"

        # Expected results, computed in process from the library.
        theta, (q_aa, q_fe) = drive.drive_to_mcp(params_mod.DriveState(a1, a2), params.differential)
        q2, q3 = drive.rigid_coupled_flexion(q_fe, params.coupling_model())
        drive_json = {
            "theta_rad": sig_list(theta.as_array()),
            "q_aa_rad": sig(q_aa),
            "q_fe_rad": sig(q_fe),
            "rigid_flexion_rad": sig_list([q_fe, q2, q3]),
        }
        drive_manifest = {"subcommand": "drive-map", "seed": None, "outputs": [],
                          "version": version,
                          "config_digest": config_digest(params_mod.params_to_dict(params))}
        drive_text = sig_list([theta.theta1, theta.theta2, q_aa, q_fe, q_fe, q2, q3])
        drive_argv = ["drive-map", "--a1", repr(a1), "--a2", repr(a2)]

        self.ops = {
            "drive_map_text": (drive_argv, self._expect_numbers(drive_text)),
            "drive_map_json": (drive_argv + ["--format", "json"],
                               self._expect_json(drive_json, drive_manifest)),
        }
        for config in ("default", "text-ratio"):
            p = params_mod.resolve_params(config)
            jac = ucm.transmission_jacobians(p)
            stiff = ucm.stiffness_matrices(p)
            rank = ucm.constraint_rank(p)
            ms = ucm.motion_subspaces(p)
            report = {
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
            }
            manifest = {"subcommand": "ucm-report", "seed": None, "outputs": [],
                        "version": version,
                        "config_digest": config_digest(params_mod.params_to_dict(p))}
            text = (sig_list(jac.serial_joint) + sig_list(jac.parallel) + [rank]
                    + [sig(stiff.min_eigenvalue)] + sig_list(ms.active_direction)
                    + sig_list(ms.passive_basis) + sig_list(ms.passive_normal)
                    + sig_list(ms.active_force))
            key = config.replace("-", "_")
            argv = ["ucm-report", "--config", config]
            self.ops[f"ucm_{key}_text"] = (argv, self._expect_numbers(text))
            self.ops[f"ucm_{key}_json"] = (argv + ["--format", "json"],
                                           self._expect_json(report, manifest))

        layout = hand.default_layout()
        chains = hand.hand_fk([params_mod.JointState(*row) for row in joints], layout)
        fk = {"fingers": {m.name: {"tip_mm": sig_list(c.tip)}
                          for m, c in zip(layout.fingers, chains)}}
        # The hand-fk manifest digest is left unchecked: what it should
        # cover is an open item of the program.
        self.ops["hand_fk_json"] = (
            ["hand-fk", "--joints", str(joints_path), "--format", "json"],
            self._expect_json(fk, {"subcommand": "hand-fk", "seed": None,
                                   "outputs": [], "version": version}))

        limits, links = params.joint_limits, params.link_lengths
        rows = range(self.WORKSPACE_N)

        def check_cloud(stdout):
            problems, digest = check_csv_cloud(
                csv_path, "x_mm,y_mm,z_mm", self.WORKSPACE_N, rows,
                lambda i: ref.fingertip(ref.workspace_joints(seed, i, limits), links))
            problems += check_manifest(csv_path, "workspace", seed,
                                       drive_manifest["config_digest"], version)
            if stdout:
                problems.append("workspace --out printed to stdout")
            return problems, digest

        self.ops["workspace_2000"] = (
            ["workspace", "--n", str(self.WORKSPACE_N), "--seed", str(seed),
             "--out", str(csv_path)],
            check_cloud)
        self.labels = tuple(self.ops)

    @staticmethod
    def _expect_numbers(want):
        def check(stdout):
            got = numbers_in(stdout.decode("utf-8"))
            problems = [] if got == want else [f"report numbers {got}, library {want}"]
            return problems, sha256(stdout)
        return check

    @staticmethod
    def _expect_json(want, manifest_want):
        def check(stdout):
            payload = json.loads(stdout)
            manifest = payload.pop("manifest", {})
            problems = [] if payload == want else [f"payload {payload}, library {want}"]
            problems += [
                f"manifest {key} is {manifest.get(key)!r}, expected {value!r}"
                for key, value in manifest_want.items() if manifest.get(key) != value
            ]
            return problems, sha256(stdout)
        return check

    def _spawn(self, argv, importtime):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += ["-m", "modhand.cli", *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            # wait4 reaps the child and reports its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return seconds, proc.returncode, out_path.read_bytes(), err_path.read_text()

    def run(self, label, traced=False) -> Outcome:
        argv, check = self.ops[label]
        seconds, code, stdout, stderr = self._spawn(argv, importtime=traced)
        if code != 0:
            return Outcome(seconds, 1, "", [f"{label}: exit code {code}: {stderr[-300:]}"])
        problems, digest = check(stdout)
        if traced:
            self.imports.append(parse_importtime(stderr))
            # The same call in process, where the tracer sees the layers.
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            in_process = check(buf.getvalue().encode("utf-8"))[1]
            if code != 0 or in_process != digest:
                problems.append("in-process output differs from the fresh process")
        return Outcome(seconds, 1, digest, [f"{label}: {p}" for p in problems])


WORKLOADS = {"envelop": Envelop, "workspace": Workspace, "cli": Cli}
