"""Dataset specs and per-window shift schedules for the five simulated corpora.

Each spec mirrors one of the paper's evaluation datasets (Section 6):

=================  ======================  =========================================
Spec               Paper dataset           Shift character
=================  ======================  =========================================
fmow_sim           FMoW                    natural covariate (weather/region) +
                                           label shift, tumbling windows, 50 parties
tiny_imagenet_c    Tiny-ImageNet-C         fresh corruption group per window,
                                           tumbling windows, 200 parties
cifar10_c_sim      CIFAR-10-C              recurring weather corruption, sliding
                                           windows, 200 parties
femnist_sim        FEMNIST                 cyclic transform shifts + Dirichlet label
                                           shift, sliding windows, 200 parties
fashion_mnist_sim  Fashion-MNIST           mixed/repeating transform shifts + label
                                           shift, sliding windows, 200 parties
=================  ======================  =========================================

Every window after W0 shifts 50 % of the parties to the window's regime
("In each window, 50% of the participating clients retain their previous
data distribution, while the remaining 50% receive a new distribution").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.corruptions import CORRUPTIONS
from repro.data.drift import CohortDrift, validate_drift_plan
from repro.data.partition import dirichlet_label_priors, shift_prior
from repro.nn.models import model_names
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class RegimeAssignment:
    """A party's covariate regime in one window."""

    corruption: str
    severity: int
    regime_id: int

    def __post_init__(self) -> None:
        if self.corruption not in CORRUPTIONS:
            raise ValueError(f"unknown corruption '{self.corruption}'")


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a simulated federated dataset.

    ``drift`` optionally replaces the legacy every-window 50 %-jump shift
    assignment with a declarative per-cohort schedule (see
    :mod:`repro.data.drift`): each :class:`~repro.data.drift.CohortDrift`
    entry claims a seeded slice of the population and describes *how* its
    shift arrives (sudden / gradual / recurring / class-incremental, with
    per-party phase offsets).  The default empty tuple keeps the historical
    ``window_regimes``-driven schedule bit for bit; when ``drift`` is
    non-empty, ``window_regimes`` is ignored by the schedule builder (it
    still sizes validation, so the plan reader fills in a placeholder).
    """

    name: str
    paper_name: str
    num_classes: int
    image_size: int
    channels: int
    num_parties: int
    num_windows: int  # includes the W0 burn-in window
    model_name: str
    windowing: str  # "tumbling" | "sliding"
    window_regimes: tuple[tuple[str, int], ...]  # (corruption, severity) for W1..
    shift_fraction: float = 0.5
    label_shift: bool = False
    dirichlet_alpha: float = 1.0  # base non-IID skew of party priors
    label_shift_alpha: float = 0.5  # skew of post-shift priors
    train_per_window: int = 48
    test_per_window: int = 24
    domain_noise_scale: float = 0.22  # per-sample pixel noise of the image domain
    seed: int = 7
    drift: tuple[CohortDrift, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift", tuple(
            CohortDrift.from_value(d) for d in self.drift))
        validate_drift_plan(self.drift, num_windows=self.num_windows)
        if self.windowing not in ("tumbling", "sliding"):
            raise ValueError("windowing must be 'tumbling' or 'sliding'")
        if self.model_name not in model_names():
            raise ValueError(f"unknown model '{self.model_name}'; "
                             f"valid models: {list(model_names())}")
        if len(self.window_regimes) != self.num_windows - 1:
            raise ValueError(
                f"{self.name}: need {self.num_windows - 1} window regimes, "
                f"got {len(self.window_regimes)}"
            )
        if not 0.0 < self.shift_fraction <= 1.0:
            raise ValueError("shift_fraction must be in (0, 1]")
        for corruption, severity in self.window_regimes:
            if corruption not in CORRUPTIONS:
                raise ValueError(f"unknown corruption '{corruption}'")
            if not 1 <= severity <= 5:
                raise ValueError("severity must be 1..5")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.image_size, self.image_size)

    def scaled(self, num_parties: int | None = None, train_per_window: int | None = None,
               test_per_window: int | None = None, seed: int | None = None) -> "DatasetSpec":
        """Return a resized copy (used by the ``ci`` scale profile)."""
        return replace(
            self,
            num_parties=num_parties if num_parties is not None else self.num_parties,
            train_per_window=(train_per_window if train_per_window is not None
                              else self.train_per_window),
            test_per_window=(test_per_window if test_per_window is not None
                             else self.test_per_window),
            seed=seed if seed is not None else self.seed,
        )


@dataclass
class ShiftSchedule:
    """Ground-truth regime and prior assignments per window and party."""

    spec: DatasetSpec
    regimes: list[list[RegimeAssignment]] = field(default_factory=list)
    label_priors: list[np.ndarray] = field(default_factory=list)
    shifted_parties: list[set[int]] = field(default_factory=list)

    def regime_of(self, window: int, party: int) -> RegimeAssignment:
        return self.regimes[window][party]

    def prior_of(self, window: int, party: int) -> np.ndarray:
        return self.label_priors[window][party]

    def parties_shifted_at(self, window: int) -> set[int]:
        """Parties whose distribution changed entering ``window`` (empty for W0)."""
        return set(self.shifted_parties[window])

    def distinct_regimes_up_to(self, window: int) -> set[int]:
        seen: set[int] = set()
        for w in range(window + 1):
            seen.update(r.regime_id for r in self.regimes[w])
        return seen


_CLEAN = ("identity", 1)


def build_shift_schedule(spec: DatasetSpec) -> ShiftSchedule:
    """Materialize the per-window regime/prior assignment for a spec.

    Window 0 is the clean burn-in window.  Entering each later window ``w``,
    a fraction ``shift_fraction`` of parties adopts the window's regime
    ``spec.window_regimes[w-1]`` (and, when ``label_shift`` is set, a freshly
    skewed label prior); the rest keep their previous assignment.  Regime ids
    are shared across windows for identical (corruption, severity) pairs, so
    recurring regimes are *the same regime* — the hook for expert reuse.

    When ``spec.drift`` is non-empty the legacy assignment above is replaced
    wholesale by the declarative per-cohort schedule (see
    :func:`build_drift_schedule`); registered datasets never set ``drift``,
    so their schedules are bit-for-bit the historical ones.
    """
    if spec.drift:
        return build_drift_schedule(spec)
    rng = spawn_rng(spec.seed, "schedule", spec.name)
    regime_ids: dict[tuple[str, int], int] = {_CLEAN: 0}

    def assignment(corruption: str, severity: int) -> RegimeAssignment:
        key = (corruption, severity)
        if key not in regime_ids:
            regime_ids[key] = len(regime_ids)
        return RegimeAssignment(corruption, severity, regime_ids[key])

    schedule = ShiftSchedule(spec=spec)
    base_priors = dirichlet_label_priors(
        spec.num_parties, spec.num_classes, spec.dirichlet_alpha, rng
    )
    current_regimes = [assignment(*_CLEAN) for _ in range(spec.num_parties)]
    current_priors = base_priors.copy()
    schedule.regimes.append(list(current_regimes))
    schedule.label_priors.append(current_priors.copy())
    schedule.shifted_parties.append(set())

    for window in range(1, spec.num_windows):
        corruption, severity = spec.window_regimes[window - 1]
        window_regime = assignment(corruption, severity)
        n_shift = max(1, int(round(spec.shift_fraction * spec.num_parties)))
        shifted = rng.choice(spec.num_parties, size=n_shift, replace=False)
        shifted_set = {int(p) for p in shifted}
        for party in shifted_set:
            current_regimes[party] = window_regime
            if spec.label_shift:
                current_priors[party] = shift_prior(
                    current_priors[party], spec.label_shift_alpha, rng
                )
        schedule.regimes.append(list(current_regimes))
        schedule.label_priors.append(current_priors.copy())
        schedule.shifted_parties.append(shifted_set)
    return schedule


def _masked_prior(prior: np.ndarray, class_order: list[int],
                  allowed: int) -> np.ndarray:
    """Restrict a label prior to the first ``allowed`` classes of a cohort's
    seeded class order (class-incremental arrival), renormalized."""
    mask = np.zeros_like(prior)
    mask[class_order[:allowed]] = 1.0
    masked = prior * mask
    total = masked.sum()
    if total <= 0.0:
        return mask / mask.sum()
    return masked / total


def build_drift_schedule(spec: DatasetSpec) -> ShiftSchedule:
    """Materialize a declarative per-cohort drift schedule (``spec.drift``).

    Cohorts are carved from one seeded permutation of the population in
    declaration order (each entry claims ``round(fraction * num_parties)``
    parties, at least one); leftover parties stay clean for the whole run.
    Each member draws a phase offset in ``[0, max_phase_offset]`` and
    experiences its cohort's trajectory that many windows late, so clients
    drift at different times.  Regime ids are shared across windows and
    cohorts for identical ``(corruption, severity)`` pairs — a recurring
    regime is *the same regime* every time it returns (the expert-reuse
    hook), exactly as in the legacy schedule.

    ``shifted_parties[w]`` is semantic, not cosmetic: a party counts as
    shifted entering ``w`` iff its regime id or label prior actually
    changed, so sudden cohorts surface once, gradual cohorts surface at
    every ramp step, and recurring cohorts surface at every phase flip.
    """
    rng = spawn_rng(spec.seed, "drift-schedule", spec.name)
    regime_ids: dict[tuple[str, int], int] = {_CLEAN: 0}

    def assignment(corruption: str, severity: int) -> RegimeAssignment:
        key = (corruption, severity)
        if key not in regime_ids:
            regime_ids[key] = len(regime_ids)
        return RegimeAssignment(corruption, severity, regime_ids[key])

    base_priors = dirichlet_label_priors(
        spec.num_parties, spec.num_classes, spec.dirichlet_alpha, rng
    )
    order = [int(p) for p in rng.permutation(spec.num_parties)]

    # party -> (drift entry, seeded class order, phase offset)
    rules: dict[int, tuple[CohortDrift, list[int], int]] = {}
    pos = 0
    for entry in spec.drift:
        size = max(1, int(round(entry.fraction * spec.num_parties)))
        members = order[pos:pos + size]
        pos += len(members)
        class_order = [int(c) for c in rng.permutation(spec.num_classes)]
        for party in members:
            offset = (int(rng.integers(0, entry.max_phase_offset + 1))
                      if entry.max_phase_offset > 0 else 0)
            rules[party] = (entry, class_order, offset)

    clean = assignment(*_CLEAN)
    schedule = ShiftSchedule(spec=spec)
    schedule.regimes.append([clean] * spec.num_parties)
    schedule.label_priors.append(base_priors.copy())
    schedule.shifted_parties.append(set())

    for window in range(1, spec.num_windows):
        regimes: list[RegimeAssignment] = []
        priors = base_priors.copy()
        shifted: set[int] = set()
        for party in range(spec.num_parties):
            rule = rules.get(party)
            if rule is None:
                regimes.append(clean)
                continue
            entry, class_order, offset = rule
            effective = window - offset
            regime = assignment(*entry.regime_at(effective))
            regimes.append(regime)
            allowed = entry.allowed_classes(effective, spec.num_classes)
            if allowed is not None:
                priors[party] = _masked_prior(base_priors[party],
                                              class_order, allowed)
            prev = schedule.regimes[window - 1][party]
            prev_prior = schedule.label_priors[window - 1][party]
            if (regime.regime_id != prev.regime_id
                    or not np.array_equal(priors[party], prev_prior)):
                shifted.add(party)
        schedule.regimes.append(regimes)
        schedule.label_priors.append(priors)
        schedule.shifted_parties.append(shifted)
    return schedule


_SPECS: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> DatasetSpec:
    if spec.name in _SPECS:
        raise ValueError(f"duplicate dataset spec '{spec.name}'")
    _SPECS[spec.name] = spec
    return spec


# --- FMoW: 4 evaluation windows, natural covariate + label shift, 50 parties.
# Distinct weather/terrain regimes per window -> the registry grows to ~5
# experts by W4 (paper Fig. 7a).
_register(DatasetSpec(
    name="fmow_sim",
    paper_name="FMoW",
    num_classes=10,
    image_size=12,
    channels=3,
    num_parties=50,
    num_windows=5,
    model_name="lenet_mini",
    windowing="tumbling",
    window_regimes=(("fog", 4), ("frost", 4), ("contrast", 4), ("rain", 4)),
    label_shift=True,
    dirichlet_alpha=1.0,
    label_shift_alpha=0.6,
    seed=11,
))

# --- Tiny-ImageNet-C: 5 windows, a fresh corruption group per window ->
# experts spread across ~6 regimes by W5 (paper Fig. 7b).
_register(DatasetSpec(
    name="tiny_imagenet_c_sim",
    paper_name="Tiny-ImageNet-C",
    num_classes=10,
    image_size=12,
    channels=3,
    num_parties=200,
    num_windows=6,
    model_name="lenet_mini",
    windowing="tumbling",
    window_regimes=(("contrast", 4), ("defocus_blur", 5), ("fog", 4),
                    ("pixelate", 5), ("frost", 4)),
    label_shift=False,
    dirichlet_alpha=2.0,
    seed=13,
))

# --- CIFAR-10-C: weather corruptions only, and the *same* regime recurs every
# window -> parties consolidate onto a second expert (paper Fig. 7c shows a
# compact two-expert configuration).
_register(DatasetSpec(
    name="cifar10_c_sim",
    paper_name="CIFAR-10-C",
    num_classes=10,
    image_size=12,
    channels=3,
    num_parties=200,
    num_windows=5,
    model_name="lenet_mini",
    windowing="sliding",
    window_regimes=(("fog", 4), ("fog", 4), ("fog", 4), ("fog", 4)),
    label_shift=False,
    dirichlet_alpha=2.0,
    seed=17,
))

# --- FEMNIST: transform shifts cycle with reuse + Dirichlet label shift
# (paper Fig. 8a: five experts with reuse over time).
_register(DatasetSpec(
    name="femnist_sim",
    paper_name="FEMNIST",
    num_classes=10,
    image_size=12,
    channels=1,
    num_parties=200,
    num_windows=6,
    model_name="lenet_mini",
    windowing="sliding",
    window_regimes=(("rotation", 5), ("translate", 3), ("color_jitter", 5),
                    ("rotation", 5), ("pixelate", 5)),
    label_shift=True,
    dirichlet_alpha=0.8,
    label_shift_alpha=0.5,
    seed=19,
))

# --- Fashion-MNIST: repeating transform shifts -> jump, re-consolidate,
# redistribute (paper Fig. 8b's cyclical pattern).
_register(DatasetSpec(
    name="fashion_mnist_sim",
    paper_name="Fashion-MNIST",
    num_classes=10,
    image_size=12,
    channels=1,
    num_parties=200,
    num_windows=6,
    model_name="lenet_mini",
    windowing="sliding",
    window_regimes=(("rotation", 5), ("translate", 4), ("rotation", 5),
                    ("rotation", 5), ("scale_jitter", 5)),
    label_shift=True,
    dirichlet_alpha=0.8,
    label_shift_alpha=0.5,
    seed=23,
))


def dataset_names() -> tuple[str, ...]:
    return tuple(_SPECS)


def get_dataset_spec(name: str) -> DatasetSpec:
    if name not in _SPECS:
        raise KeyError(f"unknown dataset '{name}'; available: {sorted(_SPECS)}")
    return _SPECS[name]
