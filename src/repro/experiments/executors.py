"""Pluggable grid executors: serial and process-parallel cell execution.

Both executors run the same module-level :func:`run_cell`, so a grid's
results do not depend on which executor produced them: each cell builds its
dataset and strategy from the plan's declarative state and seeds every RNG
from the cell's explicit seed.  ``ParallelExecutor(jobs=N)`` therefore
yields bitwise-identical tables to ``SerialExecutor`` while overlapping the
strategy x seed grid across processes — the dominant cost of multi-seed
paper tables.
"""

from __future__ import annotations

import pickle


def run_cell(plan, cell, callbacks=()):
    """Execute one (strategy, seed) cell of a plan.

    Module-level so a :class:`ProcessPoolExecutor` can pickle it by
    reference; everything it needs travels inside ``plan`` and ``cell``.
    """
    from repro.harness.runner import run_strategy
    spec, settings = plan.resolve()
    try:
        strategy = cell.spec.build()
    except KeyError as exc:
        raise KeyError(
            f"{exc.args[0] if exc.args else exc}; if this cell ran in a "
            f"'spawn'-start worker process, strategies must be registered at "
            f"import time in an importable module (not __main__)") from exc
    except (TypeError, ValueError) as exc:
        # A kwarg the factory itself rejects (out of range); unknown and
        # wrongly typed ones already failed when the plan loaded.
        raise ValueError(f"strategy '{cell.spec.label}': {exc}") from exc
    return run_strategy(strategy, spec, settings, seed=cell.seed,
                        callbacks=callbacks)


class SerialExecutor:
    """Run cells one after another in the calling process (the default)."""

    def map(self, plan, callbacks=()):
        return [run_cell(plan, cell, callbacks) for cell in plan.cells()]


class ParallelExecutor:
    """Run cells across a process pool, preserving cell order.

    Requires the plan and callbacks to be picklable (strategy kwargs and
    callbacks must not hold lambdas or closures).  Workers use the ``fork``
    start method where available so strategies registered
    anywhere in the parent (scripts, notebooks) stay visible; under
    ``spawn`` (Windows), registrations must happen at import time in an
    importable module.  With one cell or ``jobs=1`` it degrades to
    in-process execution.  The process pool is imported only when one
    starts, so a serial run never loads ``multiprocessing``.
    """

    def __init__(self, jobs: int = 2) -> None:
        if jobs <= 0:
            raise ValueError("jobs must be positive")
        self.jobs = jobs

    def map(self, plan, callbacks=()):
        cells = plan.cells()
        if len(cells) <= 1 or self.jobs == 1:
            return [run_cell(plan, cell, callbacks) for cell in cells]
        try:
            pickle.dumps((plan, tuple(callbacks)))
        except Exception as exc:
            raise ValueError(
                "ParallelExecutor needs a picklable plan and callbacks (no "
                "lambdas or closures in strategy kwargs or callbacks); or "
                "fall back to SerialExecutor") from exc
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        mp_context = (multiprocessing.get_context("fork")
                      if "fork" in multiprocessing.get_all_start_methods()
                      else None)
        workers = min(self.jobs, len(cells))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=mp_context) as pool:
            futures = [pool.submit(run_cell, plan, cell, callbacks)
                       for cell in cells]
            return [f.result() for f in futures]
