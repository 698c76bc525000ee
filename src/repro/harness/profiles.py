"""Scale profiles: the paper's configuration vs fast simulator settings."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from repro.data.registry import DatasetSpec, get_dataset_spec
from repro.federation.async_engine import FederationConfig
from repro.federation.pool import PopulationConfig
from repro.federation.rounds import RoundConfig
from repro.nn.training import LocalTrainingConfig
from repro.privacy.plan import PrivacyPlan
from repro.utils.precision import PrecisionPlan

_PROFILE_NAMES = ("ci", "small", "paper")

#: The run sub-plans: one key each, spelled the same in ``RunSettings``, a
#: plan file and a ``compare`` flag, and read by one
#: :func:`~repro.utils.validation.read_knob`.
RUN_KNOBS = {
    "precision": PrecisionPlan,
    "federation": FederationConfig,
    "privacy": PrivacyPlan,
    "population": PopulationConfig,
}


@dataclass
class RunSettings:
    """How many rounds/participants a run uses and how it evaluates.

    ``precision`` is the run's :class:`~repro.utils.precision.PrecisionPlan`:
    ``params`` names the model parameter/transport/aggregation dtype; every
    party embedding is cast to float64 at the Algorithm-1 reporting boundary
    whatever it is (the detection island).  ``params="float32"`` halves
    memory and roughly doubles BLAS throughput; the ``ci``/``small``
    profiles default to it because it reproduces the seed's detection
    decisions.  Direct construction defaults to all-float64 — the bitwise
    legacy plane.

    ``federation`` selects the participation regime: synchronous full-cohort
    rounds (the default: the one round engine under a quiet availability
    model) or ``buffered``/``async`` staleness-weighted aggregation under a
    simulated availability scenario
    (see :class:`~repro.federation.async_engine.FederationConfig`).

    ``population`` (a :class:`~repro.federation.pool.PopulationConfig`)
    declares the size and policy of the run's
    :class:`~repro.federation.pool.PartyPool`: how many parties exist, how
    many may be live at once (bounded LRU — parties are materialized on
    first touch and evicted under pressure, so populations of 10^5–10^6
    clients run in flat memory), the participation skew and the survey cap.
    The default ``None`` is the dataset's own ``spec.num_parties`` parties,
    all resident, drawn uniformly; ``population.size == spec.num_parties``
    reproduces it bitwise under any residency bound.

    ``privacy`` is the run's :class:`~repro.privacy.plan.PrivacyPlan`:
    ``masking`` turns every federated round into a secure-aggregation
    session (see :mod:`repro.privacy.secure_aggregation`) — each party
    update is sealed under its own mask in its bank row from training until
    its aggregation fires, so no unmasked individual update is ever
    resident server-side, including inside async stream buffers.  Sealing is exact (bit-domain), so a
    masked run reproduces its unmasked twin bit for bit.  ``threshold``
    adds Shamir t-of-n dropout recovery on top; ``mask_seed`` overrides
    the mask root (``sealed_scoring`` is retired and ignored).

    Each :data:`RUN_KNOBS` field takes any input its class reads (a
    mapping, a spec string); ``None`` is the field's default.

    ``dtype``, ``shards``, ``shard_backend``, ``shard_hosts`` and
    ``secure_aggregation`` are not constructor arguments.  ``dtype`` mirrors
    ``precision.params``, ``secure_aggregation`` mirrors ``privacy.masking``
    and the shard trio are constants; they stay fields, in place, only
    because committed plan files serialize ``dataclasses.asdict`` of the
    settings (see :func:`repro.experiments.plan._run_settings_from_dict`).
    """

    rounds_burn_in: int = 6
    rounds_per_window: int = 6
    round_config: RoundConfig = field(default_factory=RoundConfig)
    eval_parties: int | None = None  # None = evaluate every party
    dtype: str = field(init=False)  # mirrors precision.params
    precision: PrecisionPlan = field(default_factory=PrecisionPlan)
    federation: FederationConfig = field(default_factory=FederationConfig)
    shards: int = field(default=1, init=False)
    shard_backend: str = field(default="auto", init=False)
    shard_hosts: tuple[str, ...] = field(default=(), init=False)
    secure_aggregation: bool = field(init=False)  # mirrors privacy.masking
    privacy: PrivacyPlan = field(default_factory=PrivacyPlan)
    population: PopulationConfig | None = None

    def __post_init__(self) -> None:
        if self.rounds_burn_in <= 0 or self.rounds_per_window <= 0:
            raise ValueError("round counts must be positive")
        if self.eval_parties is not None and self.eval_parties <= 0:
            raise ValueError("eval_parties must be positive when given")
        for f in fields(self):
            if f.name in RUN_KNOBS:
                value = getattr(self, f.name)
                if value is None and f.default_factory is not MISSING:
                    value = f.default_factory()
                setattr(self, f.name, RUN_KNOBS[f.name].from_value(
                    value, f"settings {f.name}"))
        self.dtype = self.precision.params
        self.secure_aggregation = self.privacy.masking

    @property
    def np_dtype(self) -> np.dtype:
        return self.precision.np_params

    def rounds_for_window(self, window: int) -> int:
        return self.rounds_burn_in if window == 0 else self.rounds_per_window

    def scaled_rounds(self, factor: float) -> "RunSettings":
        return replace(
            self,
            rounds_burn_in=max(1, int(round(self.rounds_burn_in * factor))),
            rounds_per_window=max(1, int(round(self.rounds_per_window * factor))),
        )


def profile_names() -> tuple[str, ...]:
    return _PROFILE_NAMES


def _local(epochs: int = 3, lr: float = 0.05) -> LocalTrainingConfig:
    return LocalTrainingConfig(epochs=epochs, batch_size=8, lr=lr, momentum=0.9)


def get_profile(profile: str, dataset: str) -> tuple[DatasetSpec, RunSettings]:
    """Resolve (scaled dataset spec, run settings) for a profile.

    * ``ci``    — seconds-scale: few parties, short windows.  The default for
      tests and benches.
    * ``small`` — minutes-scale: more parties/rounds, sharper separation
      between methods.
    * ``paper`` — the paper's party counts (50/200) with laptop-sized rounds.

    ``ci`` and ``small`` run the float32 parameter plane (detection
    statistics stay float64); ``paper`` keeps the all-float64 legacy plane.
    """
    spec = get_dataset_spec(dataset)
    if profile == "ci":
        parties = 16 if spec.num_parties <= 50 else 24
        spec = spec.scaled(num_parties=parties, train_per_window=48,
                           test_per_window=24)
        settings = RunSettings(
            rounds_burn_in=10,
            rounds_per_window=6,
            round_config=RoundConfig(participants_per_round=8,
                                     local=_local(epochs=3)),
            eval_parties=None,
            precision=PrecisionPlan(params="float32"),
        )
    elif profile == "small":
        parties = 24 if spec.num_parties <= 50 else 48
        spec = spec.scaled(num_parties=parties, train_per_window=48,
                           test_per_window=24)
        settings = RunSettings(
            rounds_burn_in=10,
            rounds_per_window=8,
            round_config=RoundConfig(participants_per_round=10, local=_local()),
            eval_parties=None,
            precision=PrecisionPlan(params="float32"),
        )
    elif profile == "paper":
        settings = RunSettings(
            rounds_burn_in=15,
            rounds_per_window=12,
            round_config=RoundConfig(participants_per_round=20, local=_local()),
            eval_parties=48 if spec.num_parties > 48 else None,
        )
    else:
        raise KeyError(f"unknown profile '{profile}'; available: {_PROFILE_NAMES}")
    return spec, settings
