"""Shared fixtures: tiny dataset specs and pre-trained mini federations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.federated import FederatedShiftDataset
from repro.data.registry import DatasetSpec
from repro.experiments.events import RunCallback
from repro.federation.async_engine import FederationConfig, FederationEngine
from repro.federation.pool import PartyPool
from repro.federation.rounds import RoundConfig
from repro.federation.strategy import StrategyContext
from repro.harness import runner
from repro.harness.profiles import RunSettings
from repro.harness.runner import EvaluatedParties
from repro.nn.models import build_model
from repro.nn.training import LocalTrainingConfig
from repro.privacy.secure_aggregation import _uint_dtype
from repro.utils.params import ParamBank
from repro.utils.rng import spawn_rng

# Every test runs under the heap policy a run sets (``runner._keep_heap``),
# set once here before any test allocates, so each kernel pin is paid once
# and holds where runs execute.
runner._keep_heap()


def make_tiny_spec(name: str = "unit_tiny", num_parties: int = 8,
                   num_windows: int = 3, label_shift: bool = False,
                   window_regimes: tuple = (("fog", 4), ("fog", 4)),
                   num_classes: int = 4, train: int = 32, test: int = 16,
                   model_name: str = "mlp", seed: int = 101) -> DatasetSpec:
    """A deliberately small dataset spec for fast unit tests."""
    return DatasetSpec(
        name=name,
        paper_name="unit-test",
        num_classes=num_classes,
        image_size=8,
        channels=1,
        num_parties=num_parties,
        num_windows=num_windows,
        model_name=model_name,
        windowing="tumbling",
        window_regimes=window_regimes,
        label_shift=label_shift,
        dirichlet_alpha=3.0,
        train_per_window=train,
        test_per_window=test,
        domain_noise_scale=0.15,
        seed=seed,
    )


def make_run_settings(rounds_burn_in: int = 3, rounds_per_window: int = 2,
                      participants: int = 4, epochs: int = 2) -> RunSettings:
    return RunSettings(
        rounds_burn_in=rounds_burn_in,
        rounds_per_window=rounds_per_window,
        round_config=RoundConfig(
            participants_per_round=participants,
            local=LocalTrainingConfig(epochs=epochs, batch_size=8, lr=0.05,
                                      momentum=0.9),
        ),
    )


def make_context(spec: DatasetSpec, dataset: FederatedShiftDataset,
                 window: int = 0, seed: int = 0,
                 settings: RunSettings | None = None,
                 dtype=None) -> StrategyContext:
    """A strategy context over a pool whose parties all hold ``window``'s
    data, on a quiet ``sync`` engine already advanced to tick 0."""
    settings = settings if settings is not None else make_run_settings()
    parties = PartyPool(spec, dataset, seed=seed, dtype=dtype)
    parties.begin_window(window)
    for pid in parties:
        parties[pid]

    def model_factory():
        return build_model(spec.model_name, spec.input_shape, spec.num_classes,
                           spawn_rng(seed, "global-model-init"))

    engine = FederationEngine(FederationConfig())
    engine.advance()
    return StrategyContext(
        spec=spec,
        parties=parties,
        model_factory=model_factory,
        round_config=settings.round_config,
        federation=engine,
        seed=seed,
    )


def mean_accuracy(strategy, dataset: FederatedShiftDataset,
                  window: int) -> float:
    """Mean test accuracy (0..1) of a hand-driven strategy on ``window``,
    measured the way the runner measures a run."""
    ctx = strategy.context
    evaluated = EvaluatedParties(ctx.spec, dataset, ctx.party_ids,
                                 ctx.parties.model)
    evaluated.begin_window(window)
    return evaluated.mean_accuracy_pct(strategy) / 100.0


class AssignmentSnapshots(RunCallback):
    """A ShiftEx run's party -> expert map and live expert ids at each
    window's close (assignments change only in ``start_window``)."""

    def __init__(self, strategy) -> None:
        self.strategy, self.maps, self.live = strategy, {}, {}

    def on_window_end(self, info, window, series, state) -> None:
        self.maps[window] = dict(self.strategy.assignments)
        self.live[window] = set(self.strategy.registry.ids())


class ReportSnapshots(RunCallback):
    """A ShiftEx run's party reports (Algorithm 1) at each window's close,
    keyed by party in survey order (each window's reports replace the
    last in ``start_window``; W0's are taken in ``end_window(0)``)."""

    def __init__(self, strategy) -> None:
        self.strategy, self.reports = strategy, {}

    def on_window_end(self, info, window, series, state) -> None:
        self.reports[window] = dict(self.strategy._party_state)


def bank_row(bank: ParamBank, values) -> int:
    """Allocate a row of ``bank`` holding the flat vector ``values``."""
    row = bank.alloc()
    bank.row(row)[...] = values
    return row


def sealed_net(session, party_id: int) -> np.ndarray:
    """The party's net mask: the bits sealing a zero row adds.  A member
    seals once per session, so this spends the party's seal."""
    zero = np.zeros(session.dim, dtype=session.dtype)
    session.seal_row(party_id, zero)
    return zero.view(_uint_dtype(session.dtype))


def bank_of(vectors, dtype=None) -> ParamBank:
    """A bank with one row per flat vector, in order."""
    matrix = np.stack(vectors)
    bank = ParamBank(matrix.shape[1], capacity=len(vectors),
                     dtype=matrix.dtype if dtype is None else dtype)
    for vector in matrix:
        bank_row(bank, vector)
    return bank


@pytest.fixture(scope="session")
def tiny_spec() -> DatasetSpec:
    return make_tiny_spec()


@pytest.fixture(scope="session")
def tiny_dataset(tiny_spec) -> FederatedShiftDataset:
    return FederatedShiftDataset(tiny_spec)


@pytest.fixture()
def rng() -> np.random.Generator:
    return spawn_rng(0, "test")
