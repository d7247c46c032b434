"""Byte-identity of the CLI's outputs against stored golden files.

Each case below runs one subcommand in process and compares its stdout with
``tests/data/golden/<case>.out``.  Text, CSV and JSONL outputs must match
byte for byte.  JSON outputs must match byte for byte once the ``manifest``
object is removed from both sides, since the manifest records the input
paths and the tool version.
"""

import json
from pathlib import Path

import pytest

from modhand.cli import main

DATA = Path(__file__).parent / "data"
JOINTS = str(DATA / "joints.json")
ENV_SPRINGS = str(DATA / "env_springs.json")  # the stiff springs of the enveloping scenes
DRIVE = ["drive-map", "--a1", "0.7", "--a2", "-0.3"]
WORKSPACE = ["workspace", "--n", "25", "--seed", "3"]
ENVELOP = ["envelop", "--sphere-d", "40", "--center", "34,28,0", "--a-max", "27.5",
           "--steps", "40"]
SLIDING = ["envelop", "--config", ENV_SPRINGS, "--sphere-d", "30", "--center", "33,27,0",
           "--a-max", "46", "--steps", "160"]
EJECTION = ["envelop", "--config", ENV_SPRINGS, "--sphere-d", "16", "--center", "40,50,0",
            "--a-max", "60", "--steps", "150"]
JSON = ["--format", "json"]

CASES = {
    "drive-map": DRIVE,
    "drive-map.json": DRIVE + JSON,
    "ucm-report": ["ucm-report"],
    "ucm-report.json": ["ucm-report"] + JSON,
    "ucm-report-text-ratio": ["ucm-report", "--config", "text-ratio"],
    "ucm-report-text-ratio.json": ["ucm-report", "--config", "text-ratio"] + JSON,
    "hand-fk": ["hand-fk"],
    "hand-fk.json": ["hand-fk"] + JSON,
    "hand-fk-joints": ["hand-fk", "--joints", JOINTS],
    "hand-fk-joints.json": ["hand-fk", "--joints", JOINTS] + JSON,
    "workspace": WORKSPACE,
    "workspace-coupled": WORKSPACE + ["--coupled"],
    "workspace-xoy": WORKSPACE + ["--project", "xoy"],
    "envelop": ENVELOP,
    "envelop-sliding": SLIDING,
    "envelop-ejection": EJECTION,
}


def _without_manifest(text: str) -> str:
    payload = json.loads(text)
    payload.pop("manifest")
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, capsys):
    assert main(CASES[case]) == 0
    got = capsys.readouterr().out
    want = (DATA / "golden" / f"{case}.out").read_text(encoding="utf-8")
    if case.endswith(".json"):
        got, want = _without_manifest(got), _without_manifest(want)
    assert got == want
