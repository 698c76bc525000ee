"""Every committed paper artifact has its producer in ``benchmarks/fidelity.py``.

Imports the driver and runs nothing: a ``benchmarks/results`` file no
producer writes, or a producer whose artifact was never committed, fails here
instead of going stale.
"""

from benchmarks.fidelity import ARTIFACTS, RESULTS_DIR


def test_the_driver_writes_exactly_the_committed_artifacts():
    committed = sorted(path.name for path in RESULTS_DIR.iterdir())
    assert committed == sorted(f"{name}.txt" for name in ARTIFACTS)
