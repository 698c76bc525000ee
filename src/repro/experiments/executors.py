"""Grid execution: every cell of a plan, in-process or over a process pool.

Every cell runs the same module-level :func:`run_cell`, so a grid's results
do not depend on how many processes produced them: each cell builds its
dataset and strategy from the plan's declarative state and seeds every RNG
from the cell's explicit seed.  ``run_cells(plan, jobs=N)`` therefore yields
bitwise-identical tables at any ``N`` while overlapping the strategy x seed
grid across processes — the dominant cost of multi-seed paper tables.
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


def run_cells(plan, jobs: int, callbacks=()) -> list:
    """Every cell's run, in cell order, over at most ``jobs`` processes.

    With one cell or ``jobs=1`` the cells run one after another in the
    calling process, which never imports ``multiprocessing``.  Otherwise
    the plan and callbacks must be picklable (strategy kwargs and callbacks
    must not hold lambdas or closures).  Workers use the ``fork`` start
    method where available so strategies registered anywhere in the parent
    (scripts, notebooks) stay visible; under ``spawn`` (Windows),
    registrations must happen at import time in an importable module.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    cells = plan.cells()
    if len(cells) <= 1 or jobs == 1:
        return [run_cell(plan, cell, callbacks) for cell in cells]
    try:
        pickle.dumps((plan, tuple(callbacks)))
    except Exception as exc:
        raise ValueError(
            "jobs > 1 needs a picklable plan and callbacks (no lambdas or "
            "closures in strategy kwargs or callbacks); or run with "
            "jobs=1") from exc
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    mp_context = (multiprocessing.get_context("fork")
                  if "fork" in multiprocessing.get_all_start_methods()
                  else None)
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells)),
                             mp_context=mp_context) as pool:
        futures = [pool.submit(run_cell, plan, cell, callbacks)
                   for cell in cells]
        return [f.result() for f in futures]
