"""The benchmark under perfbench/ wraps program functions by name. Each
name it wraps must still resolve, or a benchmark run stops at set-up."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402


class RecordingPatcher:
    """Stands in for spans.Patcher: records what would be wrapped."""

    def __init__(self):
        self.targets = []

    def wrap(self, owner, attr, make):
        self.targets.append((owner, attr))


def target_id(target):
    owner, attr = target
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize(
    "target", [(owner, attr) for owner, attr, _, _ in layers.TRACE_POINTS], ids=target_id
)
def test_trace_point_resolves(target):
    owner, attr = target
    assert callable(getattr(owner, attr, None)), target_id(target)


def test_recorder_targets_resolve():
    patcher = RecordingPatcher()
    workloads.Recorder(clock=lambda: 0.0).install(patcher)
    assert patcher.targets
    missing = [target_id(t) for t in patcher.targets if not callable(getattr(*t, None))]
    assert not missing, missing
