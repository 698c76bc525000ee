"""The run's heap policy: one ``mallopt`` pair per process, no value moved.

``repro.harness.runner.run_strategy`` sets glibc's mmap and trim thresholds
the first time it runs in a process, so the multi-MB buffers every round
frees stay on the heap for the next round instead of coming back as fresh
zero-filled pages.  These tests pin the two calls, that the policy is a
silent no-op without ``mallopt``, and that a run saves the same bytes with
and without it.  ``conftest`` sets the policy for the whole test process, so
every other tier-1 pin (the kernel differentials among them) holds under it;
the policy-off side is the subprocess run below.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.registry import build_strategy
from repro.harness import runner
from repro.harness.runner import run_strategy
from tests.conftest import make_run_settings, make_tiny_spec

ROOT = Path(__file__).resolve().parents[1]
POLICY = [(-3, 32 * 2**20), (-1, 2**30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


class FakeMallopt:
    """Stands in for ``ctypes.CDLL(None).mallopt``; records every call."""

    def __init__(self, returns: int) -> None:
        self.calls = []
        self.returns = returns

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.returns


class FakeLibc:
    def __init__(self, returns=1):
        self.mallopt = FakeMallopt(returns)
        self.calls = self.mallopt.calls


@pytest.fixture
def fresh_process(monkeypatch):
    """The runner as a process that has not set the policy yet."""
    monkeypatch.setattr(runner, "_heap_kept", False)
    return monkeypatch


def test_two_mallopt_calls_once_per_process(fresh_process):
    libc, opened = FakeLibc(), []
    fresh_process.setattr(runner.ctypes, "CDLL",
                          lambda name: opened.append(name) or libc)
    spec = make_tiny_spec(num_parties=4, num_windows=2, window_regimes=(("fog", 4),),
                          train=16, test=8)
    settings = make_run_settings(rounds_burn_in=1, rounds_per_window=1,
                                 participants=2, epochs=1)
    for seed in (0, 1, 0):
        run_strategy(build_strategy("fedavg"), spec, settings, seed=seed)
    assert opened == [None]
    assert libc.calls == POLICY


class NoMallopt:
    """A C library without ``mallopt`` (not glibc)."""


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", ["missing", _no_libc, lambda name: NoMallopt(),
                                  "refuses"],
                         ids=["no CDLL", "CDLL raises", "no mallopt", "returns 0"])
def test_no_mallopt_raises_nothing(fresh_process, cdll):
    libc = FakeLibc(returns=0)
    if cdll == "missing":
        fresh_process.delattr(runner.ctypes, "CDLL")
    else:
        fresh_process.setattr(runner.ctypes, "CDLL",
                              (lambda name: libc) if cdll == "refuses" else cdll)
    runner._keep_heap()
    runner._keep_heap()
    assert runner._heap_kept
    # A refused threshold stops the policy: the other is never set alone.
    assert libc.calls == (POLICY[:1] if cdll == "refuses" else [])


# A tiny masked, buffered fmow_sim run at the ci profile: the conv model's
# stacked cohorts, the masked seal and the bank gathers are all above
# glibc's default 128 KiB mmap threshold, so the two processes place them
# differently.
RUN = textwrap.dedent("""
    import json, sys
    from repro.experiments.plan import ExperimentPlan
    from repro.harness import runner
    from repro.utils.serialization import run_result_to_dict
    if sys.argv[1] == "off":
        runner._keep_heap = lambda: None
    plan = ExperimentPlan.from_dict({
        "dataset": "fmow_sim", "profile": "ci", "seeds": [0],
        "strategies": ["shiftex"],
        "federation": {"mode": "buffered", "min_reports": 2,
                       "availability": {"dropout_prob": 0.2,
                                        "straggler_prob": 0.3}},
        "privacy": "masking=on,threshold=2",
        "spec_override": {"num_parties": 8, "num_windows": 2,
                          "window_regimes": [["fog", 4]],
                          "train_per_window": 24, "test_per_window": 12},
        "settings_override": {"rounds_burn_in": 3, "rounds_per_window": 2,
                              "round_config": {"participants_per_round": 6}},
    })
    spec, settings = plan.resolve()
    (cell,) = plan.cells()
    result = runner.run_strategy(cell.spec.build(), spec, settings,
                                 seed=cell.seed)
    print(runner._heap_kept)
    print(json.dumps(run_result_to_dict(result), indent=2))
""")


def _run(policy: str) -> tuple[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", RUN, policy], env=env,
                          capture_output=True, text=True, check=True)
    kept, saved = done.stdout.split("\n", 1)
    return kept, saved


def test_a_run_saves_the_same_bytes_with_and_without_the_policy():
    (off_kept, off), (on_kept, on) = _run("off"), _run("on")
    assert (off_kept, on_kept) == ("False", "True")
    assert json.loads(on)["extras"]["federation"]["aggregations"] > 0
    assert on == off
