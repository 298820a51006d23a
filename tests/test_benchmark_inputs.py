"""The benchmark's input builder (``perfbench/workloads.py``) runs on the
package as it stands.

The suite runs only ``tests/``, so nothing else here runs that file; it
reads ``Dataset.frames`` and ``Dataset.stacked()``, which no program path
reads.  Each workload's smoke-size input is built into a temporary
directory, and the point count is checked against its frames and agents.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_inputs_build(name, tmp_path):
    inputs = workloads.WORKLOADS[name](tmp_path, 1, workloads.SMOKE)
    assert inputs.files and all(Path(f).is_file() for f in inputs.files)
    assert len(inputs.points) == inputs.frames * inputs.agents
