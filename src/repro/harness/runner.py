"""Drive one strategy through the continual-FL life cycle.

Evaluation is the runner's *measurement*, not a protocol operation, and it
does not touch the residency it measures: the evaluated parties are the
runner's own (:class:`EvaluatedParties`), outside the
:class:`~repro.federation.pool.PartyPool`, so the pool and its counters see
protocol ops (training, reports, surveys) only.

Observers (progress output, a benchmark's clock) hook in through
:class:`~repro.experiments.events.RunCallback` objects passed as
``callbacks`` — the runner fires ``on_run_start`` / ``on_round_end`` /
``on_window_end`` / ``on_run_end``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.federated import FederatedShiftDataset
from repro.data.registry import DatasetSpec
from repro.experiments.events import RunCallback, RunInfo
from repro.federation.accounting import CommunicationLedger
from repro.federation.async_engine import FederationEngine
from repro.federation.party import Party, evaluate_parties
from repro.federation.pool import PartyPool
from repro.federation.strategy import ContinualStrategy, StrategyContext
from repro.harness.profiles import RunSettings
from repro.metrics.windows import WindowSummary, summarize_run
from repro.nn.models import build_model
from repro.privacy.secure_aggregation import MaskingSpec
from repro.utils.rng import spawn_rng


@dataclass
class StrategyRunResult:
    """Everything one run produces: series, summaries, state, overheads."""

    strategy_name: str
    dataset: str
    seed: int
    window_series: list[list[float]]  # accuracy (%) per window: entry + per round
    summaries: list[WindowSummary]
    state_log: list[dict]  # describe_state() at each window end
    ledger_summary: dict[str, float]
    extras: dict = field(default_factory=dict)

    @property
    def expert_history(self) -> list[dict[int, int]] | None:
        """Expert id -> assigned parties per window: the ``distribution`` of
        each ``state_log`` entry (ShiftEx's), None when no window has one."""
        history = [{int(eid): n for eid, n in state["distribution"].items()}
                   for state in self.state_log if "distribution" in state]
        return history or None

    @property
    def max_accuracy_per_window(self) -> list[float]:
        return [max(series) for series in self.window_series]


class EvaluatedParties:
    """The parties a run is measured on: one :class:`Party` per id, no pool.

    All share the pool's one model (every forward starts with
    ``set_params``: pool invariant 2) and are rebound once per window.  An
    in-schedule id binds the dataset's cached window — the object the pool
    binds too, so nothing is generated twice; a virtual id's window is its
    own and generates only the test split it reads, held until the next
    ``begin_window`` drops it.  O(evaluated ids) arrays, whatever the
    population.
    """

    def __init__(self, spec: DatasetSpec, dataset: FederatedShiftDataset,
                 ids: Sequence[int], model) -> None:
        self.dataset = dataset
        self.parties = [Party(pid, model, spec.num_classes) for pid in ids]

    def begin_window(self, window: int) -> None:
        for party in self.parties:
            party.set_window_data(
                self.dataset.virtual_party_window(party.party_id, window))

    def mean_accuracy_pct(self, strategy: ContinualStrategy) -> float:
        """Mean test accuracy (%) under each party's assigned model; the
        parties one served model shares are evaluated as one group."""
        results = evaluate_parties(
            [(party, strategy.params_for_party(party.party_id))
             for party in self.parties])
        return 100.0 * float(np.mean([acc for acc, _loss in results]))


# ``mallopt(param, bytes)`` calls: M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD
# (-1) of malloc.h.  Both are set: setting one freezes the other at glibc's
# 128 KiB default.
_HEAP_POLICY = ((-3, 32 << 20), (-1, 1 << 30))
_heap_kept = False


def _keep_heap() -> None:
    """Keep freed round buffers on the heap, once per process.

    A round allocates and frees multi-MB arrays (stacked replicas, gradient
    temporaries, cohort stacks, bank gathers).  Under glibc's dynamic mmap
    threshold each can come back as fresh zero-filled pages, faulted in
    every round; below a 32 MiB threshold and a 1 GiB trim threshold they
    reuse memory the process already holds.  No value changes: only where
    the bytes live.  A silent no-op without glibc's ``mallopt``.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _HEAP_POLICY:
        if not mallopt(param, value):
            return


def run_strategy(strategy: ContinualStrategy, spec: DatasetSpec,
                 settings: RunSettings, seed: int = 0,
                 dataset: FederatedShiftDataset | None = None,
                 callbacks: Sequence[RunCallback] = (),
                 ) -> StrategyRunResult:
    """Run one strategy over every window of a dataset spec.

    Per window: move the party pool to the window (resident parties get
    their new data), let the strategy react (``start_window``), rebind the
    evaluated parties and measure the post-shift entry accuracy, train for
    the window's rounds measuring after each, then close the window.
    Returns accuracy in percent.

    ``callbacks`` observe the run (see :mod:`repro.experiments.events`).

    The first call in a process sets a glibc heap policy for the whole
    process (``_keep_heap``): freed buffers stay on the heap, so later
    allocations anywhere in the process reuse them.  It changes no value.
    """
    _keep_heap()
    dtype = settings.np_dtype
    ds = (dataset if dataset is not None
          else FederatedShiftDataset(spec, dtype=dtype))
    # Every run's parties live in a PartyPool, materialized on first touch.
    # ``settings.population`` declares its size and policy (residency bound,
    # participation skew, survey cap); undeclared, it is the dataset's own
    # ``spec.num_parties`` parties, all resident.  No bound changes a result
    # (tests/test_party_pool.py pins it).
    parties = PartyPool(spec, ds, settings.population, seed=seed, dtype=dtype)
    num_parties = len(parties)

    def model_factory():
        return build_model(spec.model_name, spec.input_shape, spec.num_classes,
                           spawn_rng(seed, "global-model-init"), dtype=dtype)

    # Every round of the run goes through this engine; the default config
    # is quiet ``sync`` (nobody drops, nothing stays buffered).
    engine = FederationEngine(settings.federation, seed=seed)
    # The privacy plan's mask root defaults to the run seed (mask streams
    # are label-namespaced, so they never collide with model/data draws);
    # ``mask_seed`` pins it independently of the data/model seed.
    privacy = settings.privacy
    # Byte accounting follows the run's parameter dtype: a float32 plane
    # moves half the bytes of its float64 twin, exactly.
    ledger = CommunicationLedger.from_precision(settings.precision)
    ctx = StrategyContext(
        spec=spec,
        parties=parties,
        model_factory=model_factory,
        round_config=settings.round_config,
        federation=engine,
        seed=seed,
        ledger=ledger,
        # Share traffic of a threshold session lands on the run ledger,
        # under the ``secure_agg`` wire category.
        masking=(MaskingSpec(seed=privacy.mask_root(seed),
                             threshold=privacy.threshold,
                             ledger=ledger)
                 if privacy.masking else None),
    )
    strategy.setup(ctx)

    eval_count = settings.eval_parties
    if eval_count is None and num_parties > spec.num_parties:
        # "Evaluate everyone" is O(population); beyond the dataset's own
        # party count default to a seeded subset instead.
        eval_count = min(64, num_parties)
    if eval_count is not None and eval_count < num_parties:
        eval_rng = spawn_rng(seed, "eval-subset")
        eval_ids = sorted(int(p) for p in eval_rng.choice(
            num_parties, size=eval_count, replace=False))
    else:
        eval_ids = sorted(parties)
    evaluated = EvaluatedParties(spec, ds, eval_ids, parties.model)

    window_series: list[list[float]] = []
    state_log: list[dict] = []

    info = RunInfo(
        strategy_name=strategy.name,
        dataset=spec.name,
        seed=seed,
        num_windows=spec.num_windows,
        rounds_burn_in=settings.rounds_burn_in,
        rounds_per_window=settings.rounds_per_window,
    )
    for cb in callbacks:
        cb.on_run_start(info)

    for window in range(spec.num_windows):
        # Before start_window, so the new window's train splits of the
        # resident parties are generated outside the shift response.
        parties.begin_window(window)
        engine.begin_window(window)
        strategy.start_window(window)
        # After the (timed) shift response: an in-schedule id whose window
        # no resident holds yet generates its train split at this bind.
        evaluated.begin_window(window)
        series = [evaluated.mean_accuracy_pct(strategy)]
        for round_index in range(settings.rounds_for_window(window)):
            engine.advance()
            strategy.run_round(window, round_index)
            accuracy = evaluated.mean_accuracy_pct(strategy)
            series.append(accuracy)
            for cb in callbacks:
                cb.on_round_end(info, window, round_index, accuracy)
        strategy.end_window(window)
        window_series.append(series)
        state = strategy.describe_state()
        state_log.append(state)
        for cb in callbacks:
            cb.on_window_end(info, window, list(series), state)
        ds.evict_window(window)

    result = StrategyRunResult(
        strategy_name=strategy.name,
        dataset=spec.name,
        seed=seed,
        window_series=window_series,
        # A burn-in-only spec leaves nothing to summarize.
        summaries=(summarize_run(window_series)
                   if len(window_series) >= 2 else []),
        state_log=state_log,
        ledger_summary=ctx.ledger.summary(),
    )
    if settings.federation.is_active:
        result.extras["federation"] = engine.summary()
    if settings.population is not None:
        # Only a declared population reports its residency counters, so
        # default-plan artifacts carry no trace of the pool.
        result.extras["party_pool"] = parties.summary()
    for cb in callbacks:
        cb.on_run_end(info, result)
    return result
