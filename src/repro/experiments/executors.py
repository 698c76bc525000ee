"""Grid execution: every cell of a plan, in-process or over a process pool.

Every cell runs the same module-level :func:`run_cell`, so a grid's results
do not depend on how many processes produced them: each cell builds its
dataset and strategy from the plan's declarative state and seeds every RNG
from the cell's explicit seed.  ``run_cells(pairs, jobs=N)`` therefore yields
bitwise-identical tables at any ``N`` while overlapping the strategy x seed
grid across processes — the dominant cost of multi-seed paper tables.  The
pairs may come from several plans, so one pool serves a whole gate.
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


def _one_blas_thread() -> None:
    """Pin this worker's BLAS to one thread, so ``jobs`` workers share the
    cores instead of each running a full-width OpenBLAS pool.

    A forked worker inherits the parent's initialised OpenBLAS, so setting
    ``OPENBLAS_NUM_THREADS`` here would do nothing; the call goes to the
    OpenBLAS numpy bundles when it exports the setter, and does nothing
    otherwise.  No result depends on it: ``jobs=1`` runs the same bytes.
    """
    import ctypes
    from numpy.linalg import _umath_linalg
    try:
        blas = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return
    set_threads = getattr(blas, "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(1)


def run_cells(pairs, jobs: int, callbacks=()) -> list:
    """Every ``(plan, cell)`` pair's run, in order, over at most ``jobs``
    processes.

    With one pair or ``jobs=1`` the cells run one after another in the
    calling process, which never imports ``multiprocessing``.  Otherwise
    the plans and callbacks must be picklable (strategy kwargs and callbacks
    must not hold lambdas or closures), and each worker runs its BLAS on
    one thread.  Workers use the ``fork`` start method where available so
    strategies registered anywhere in the parent (scripts, notebooks) stay
    visible; under ``spawn`` (Windows), registrations must happen at import
    time in an importable module.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    pairs = list(pairs)
    if len(pairs) <= 1 or jobs == 1:
        return [run_cell(plan, cell, callbacks) for plan, cell in pairs]
    try:
        pickle.dumps((pairs, tuple(callbacks)))
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
    with ProcessPoolExecutor(max_workers=min(jobs, len(pairs)),
                             mp_context=mp_context,
                             initializer=_one_blas_thread) as pool:
        futures = [pool.submit(run_cell, plan, cell, callbacks)
                   for plan, cell in pairs]
        return [f.result() for f in futures]
