"""Federated learning core: parties, aggregation, rounds, accounting.

This package is the Flower/PySyft stand-in: an in-process FL simulator with
the same moving parts — parties that train locally and report updates, a
weighted FedAvg aggregation rule (with optional FedProx proximal term in the
local objective), per-round participant selection hooks, communication /
computation accounting, and an asynchronous federation engine (buffered
staleness-weighted aggregation under simulated client availability).
"""

from repro.federation.party import Party, LocalUpdate
from repro.federation.aggregation import STALENESS_POLICIES, staleness_decay
from repro.federation.availability import (
    AvailabilityConfig,
    AvailabilitySimulator,
    ReportFate,
)
from repro.federation.pool import (
    PARTICIPATION_SKEWS,
    CohortSampler,
    PartyPool,
    PopulationConfig,
)
from repro.federation.rounds import RoundConfig, RoundStats, run_fl_round
from repro.federation.async_engine import (
    PARTICIPATION_MODES,
    AsyncRoundBuffer,
    FederationConfig,
    FederationEngine,
)
from repro.federation.accounting import CommunicationLedger
from repro.federation.strategy import ContinualStrategy, StrategyContext

__all__ = [
    "Party",
    "LocalUpdate",
    "STALENESS_POLICIES",
    "staleness_decay",
    "AvailabilityConfig",
    "AvailabilitySimulator",
    "ReportFate",
    "PARTICIPATION_SKEWS",
    "CohortSampler",
    "PartyPool",
    "PopulationConfig",
    "RoundConfig",
    "RoundStats",
    "run_fl_round",
    "PARTICIPATION_MODES",
    "AsyncRoundBuffer",
    "FederationConfig",
    "FederationEngine",
    "CommunicationLedger",
    "ContinualStrategy",
    "StrategyContext",
]
