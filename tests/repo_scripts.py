"""The repository's own scripts that tests run in process, each loaded once
from this checkout: the trace corpus tool ``tools/retrace.py`` and, through
it, the benchmark's ``bench/workloads.py``."""

import importlib.util
from pathlib import Path

from modhand import grasp, params

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("retrace", ROOT / "tools" / "retrace.py")
retrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(retrace)


def bench_scenes(seed):
    """(params, object, schedule) of each of the benchmark's envelop scenes at
    ``seed``, in the order of its labels, as its ``Envelop`` workload builds
    them: when the benchmark's scenes change, the tests run the new ones."""
    envelop = retrace.Envelop({"modhand.grasp": grasp, "modhand.params": params}, seed, None)
    return [scene[:3] for scene in envelop.scenes.values()]
