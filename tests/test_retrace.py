"""The trace corpus tool: a dump diffs clean against itself, the diff names
exactly the step that a doctored copy changed, each step's KKT residual is
recorded and its largest reported, and each step's call counts add up to its
sweep's."""

import io
import json
import math
import subprocess
import sys

import pytest

from modhand.grasp import KKT_REL_TOL
from repo_scripts import ROOT, retrace


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """The coarse scenes dumped against this checkout's ``src``."""
    out = tmp_path_factory.mktemp("retrace") / "coarse.jsonl"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "retrace.py"), "dump", str(ROOT / "src"),
         str(out), "--groups", "coarse"],
        check=True, timeout=300,
    )
    return out


def run_diff(a, b):
    text = io.StringIO()
    code = retrace.diff(str(a), str(b), out=text)
    return code, text.getvalue()


def doctored(dump, tmp_path, change):
    """A copy of ``dump`` whose record for step 10 of the first sweep is
    passed through ``change``; returns the copy and that scene's name."""
    lines = dump.read_text().splitlines()
    scene = None
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("step") == 10:
            scene = record["scene"]
            change(record)
            lines[i] = json.dumps(record)
            break
    path = tmp_path / "doctored.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, scene


def test_self_diff_is_clean(dump):
    code, text = run_diff(dump, dump)
    assert code == 0
    assert "largest joint move: 0 rad" in text
    for line in text.splitlines():
        if line.strip().startswith(("status changes", "set changes", "steps moving",
                                    "steps with changed bits")):
            assert line.endswith("none"), line


def test_diff_reports_exactly_the_moved_joint(dump, tmp_path):
    def move(record):
        record["joints"][1] = (float.fromhex(record["joints"][1]) + 2e-9).hex()

    path, scene = doctored(dump, tmp_path, move)
    code, text = run_diff(dump, path)
    assert code == 1
    moved = [line.strip() for line in text.splitlines() if line.startswith("    ")]
    assert len(moved) == 1 and moved[0].startswith(f"{scene} step 10: 2e-09")
    assert "set changes: none" in text and "status changes: none" in text


def test_diff_reports_exactly_the_changed_touching_set(dump, tmp_path):
    def untouch(record):
        record["touching"] = record["touching"][:-1] if record["touching"] else [3]

    path, scene = doctored(dump, tmp_path, untouch)
    code, text = run_diff(dump, path)
    assert code == 1
    changed = [line.strip() for line in text.splitlines() if line.startswith("    ")]
    assert len(changed) == 1 and changed[0].startswith(f"{scene} step 10: touching")
    assert "steps moving > 1e-09 rad: none" in text


def test_diff_reports_exactly_the_step_whose_energy_changed_bits(dump, tmp_path):
    def flip(record):
        energy = float.fromhex(record["energy"])
        record["energy"] = math.nextafter(energy, math.inf).hex()

    path, scene = doctored(dump, tmp_path, flip)
    code, text = run_diff(dump, path)
    assert code == 0  # bit changes are reported, not failed
    changed = [line.strip() for line in text.splitlines() if line.startswith("    ")]
    assert changed == [f"{scene} step 10: energy"]
    assert "steps with changed bits in energy, gaps or forces: 1" in text


def test_dump_records_each_steps_kkt_residual(dump, tmp_path):
    steps = [json.loads(line) for line in dump.read_text().splitlines()]
    steps = [record for record in steps if "step" in record]
    # certified steps: the certification bound plus its rounding floor
    assert steps and all(0.0 <= record["kkt"] <= 2 * KKT_REL_TOL for record in steps)
    largest = max(record["kkt"] for record in steps)

    def worsen(record):
        record["kkt"] = 0.25

    path, _ = doctored(dump, tmp_path, worsen)
    code, text = run_diff(dump, path)
    assert code == 0  # residuals are reported, not failed
    sides = [line.strip() for line in text.splitlines() if "largest KKT residual" in line]
    assert [side[:2] for side in sides] == ["a:", "b:"]
    assert f"largest KKT residual {largest:.3g};" in sides[0]
    assert "largest KKT residual 0.25;" in sides[1]


def test_dump_counts_each_steps_calls(dump):
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    keys = ("kernel_calls", "qp_calls", "gauss_calls", "lstsq_calls")
    sweeps = [record for record in records if "status" in record]
    for sweep in sweeps:
        steps = [r for r in records if r["scene"] == sweep["scene"] and "step" in r]
        assert len(steps) == sweep["steps"]
        assert all(type(r[key]) is int and r[key] >= 0 for r in steps for key in keys)
        assert steps[0]["kernel_calls"] >= 1 and steps[0]["lstsq_calls"] >= 1
        sums = [sum(r[key] for r in steps) for key in keys]
        if sweep["status"] in ("completed", "ejected", "limit-saturated"):
            assert sums == [sweep[key] for key in keys]
        else:  # the failed step has no record, but its kernel or QP calls count
            assert all(s <= sweep[key] for s, key in zip(sums, keys))
            assert sums[0] + sums[1] < sweep["kernel_calls"] + sweep["qp_calls"]

    code, text = run_diff(dump, dump)
    assert code == 0
    rates = [line for line in text.splitlines() if line.strip().startswith("a:")]
    assert rates and all("gauss" in line and "lstsq" in line for line in rates)
