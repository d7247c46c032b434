"""Byte-identity of the CLI's outputs against stored golden files.

Each case below runs one subcommand in process and compares its stdout with
``tests/data/golden/<case>.out``.  Text, CSV and JSONL outputs must match
byte for byte.  JSON outputs must match byte for byte once the ``manifest``
object is removed from both sides, since the manifest records the input
paths and the tool version.
"""

import hashlib
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


# sha256 of two clouds of three blocks, 10000 rows each: the workspace goldens
# above are one block each.  Both sinks, stdout and --out, give these bytes.
MULTI_BLOCK = {
    "workspace": ([], "ebcb3e905ae3358118099900f859ca96390c1bfe1e9f8f24ba72e73499fd054b"),
    "workspace-coupled-xoy": (["--coupled", "--project", "xoy"],
                              "b82352cf637a61edad01ffb958d0b83f579b0525c69e363261d412e517635ab2"),
}


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK))
def test_multi_block_cloud_digest(case, capsys, tmp_path):
    extra, digest = MULTI_BLOCK[case]
    argv = ["workspace", "--n", "10000", "--seed", "3"] + extra
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    out = tmp_path / "cloud.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
