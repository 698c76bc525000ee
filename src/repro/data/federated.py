"""Materialize per-party, per-window federated data from a shift schedule.

:class:`FederatedShiftDataset` is the simulator's data plane: given a
:class:`~repro.data.registry.DatasetSpec` it deterministically generates each
party's labelled train/test arrays for each window, applying the window's
corruption regime and label prior — each split when it is first read
(:class:`PartyWindowData`).  Sliding-window datasets blend a fraction
(:data:`SLIDING_OVERLAP`) of the *previous* regime into a freshly shifted
window, modelling the gradual transition sliding windows capture in the
paper; tumbling windows switch abruptly.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.data.corruptions import apply_corruption
from repro.data.images import ImageDomainSpec, SyntheticImageGenerator
from repro.data.registry import (
    DatasetSpec,
    RegimeAssignment,
    build_shift_schedule,
)
from repro.utils.params import resolve_dtype
from repro.utils.rng import spawn_rng


Split = tuple[np.ndarray, np.ndarray]  # one split's (x, y)
# Share of a freshly shifted sliding window's train split drawn from the
# previous window's regime.
SLIDING_OVERLAP = 0.3


class PartyWindowData:
    """One party's data for one window; a split is generated when first read.

    :class:`FederatedShiftDataset` builds windows whose splits are still
    ``pending``: ``{"train" | "test": (n, make)}``, where ``make()`` returns
    the split's ``(x, y)`` with ``n`` samples.  Reading ``x_train`` /
    ``y_train`` (or ``label_histogram``) runs the train generator once and
    keeps its arrays, reading ``x_test`` / ``y_test`` the test generator; the
    generator is dropped as soon as it has run.  Every split draws from its
    own ``spawn_rng(seed, "data", party, window, split)`` stream, so which
    split is read first — or whether one is read at all — cannot change a
    byte of the other.  ``num_train`` / ``num_test`` answer from ``n``
    without generating anything.

    A window can also be built directly from its four arrays (tests do);
    nothing is pending then.
    """

    def __init__(self, party_id: int, window: int, regime: RegimeAssignment,
                 label_prior: np.ndarray, *,
                 x_train: np.ndarray | None = None,
                 y_train: np.ndarray | None = None,
                 x_test: np.ndarray | None = None,
                 y_test: np.ndarray | None = None,
                 pending: Mapping[str, tuple[int, Callable[[], Split]]] | None = None,
                 ) -> None:
        self.party_id = party_id
        self.window = window
        self.regime = regime
        self.label_prior = label_prior
        self._pending = dict(pending or {})
        self._splits: dict[str, Split] = {}
        if x_train is not None and y_train is not None:
            self._splits["train"] = (x_train, y_train)
        if x_test is not None and y_test is not None:
            self._splits["test"] = (x_test, y_test)
        missing = {"train", "test"} - self._splits.keys() - self._pending.keys()
        if missing:
            raise ValueError(
                f"window data needs arrays or a generator for {sorted(missing)}")

    def split(self, name: str) -> Split:
        """``(x, y)`` of the ``"train"`` or ``"test"`` split, generated once."""
        arrays = self._splits.get(name)
        if arrays is None:
            _n, make = self._pending.pop(name)
            arrays = self._splits[name] = make()
        return arrays

    def _num(self, name: str) -> int:
        if name in self._splits:
            return int(self._splits[name][0].shape[0])
        return self._pending[name][0]

    @property
    def x_train(self) -> np.ndarray:
        return self.split("train")[0]

    @property
    def y_train(self) -> np.ndarray:
        return self.split("train")[1]

    @property
    def x_test(self) -> np.ndarray:
        return self.split("test")[0]

    @property
    def y_test(self) -> np.ndarray:
        return self.split("test")[1]

    @property
    def num_train(self) -> int:
        return self._num("train")

    @property
    def num_test(self) -> int:
        return self._num("test")

    def label_histogram(self, num_classes: int) -> np.ndarray:
        """Normalized train label histogram (what Algorithm 1 reports)."""
        counts = np.bincount(self.y_train, minlength=num_classes).astype(np.float64)
        total = counts.sum()
        if total == 0:
            return np.full(num_classes, 1.0 / num_classes)
        return counts / total


class FederatedShiftDataset:
    """Deterministic generator of party/window data under a shift schedule.

    Samples are drawn and corrupted in float64; each generated split's ``x``
    is then stored at ``dtype`` (default float64), cast once.  A run builds
    its dataset at its parameter dtype, so a float32 model reads its inputs
    without a per-call cast and a cached split holds half the bytes.
    """

    def __init__(self, spec: DatasetSpec, dtype=None) -> None:
        self.spec = spec
        self.schedule = build_shift_schedule(spec)
        self.sliding_overlap = SLIDING_OVERLAP if spec.windowing == "sliding" else 0.0
        self.dtype = resolve_dtype(dtype)
        self.generator = SyntheticImageGenerator(ImageDomainSpec(
            num_classes=spec.num_classes,
            image_size=spec.image_size,
            channels=spec.channels,
            noise_scale=spec.domain_noise_scale,
            seed=spec.seed,
        ))
        self._cache: dict[tuple[int, int], PartyWindowData] = {}

    # ------------------------------------------------------------------ generation

    def _generate_split(self, party: int, window: int, n: int, split: str,
                        regime: RegimeAssignment,
                        prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rng = spawn_rng(self.spec.seed, "data", party, window, split)
        x, y = self.generator.sample_dataset(prior, n, rng)
        x = apply_corruption(x, regime.corruption, regime.severity, rng)
        return x.astype(self.dtype, copy=False), y

    def _assemble_window(self, party: int, shard: int,
                         window: int) -> PartyWindowData:
        """Describe one window: regimes/priors from ``shard``'s schedule slot,
        sample draws from ``party``'s own RNG streams.

        Nothing is generated here; the returned window holds one generator
        per split.  For in-schedule parties ``shard == party`` and the arrays
        are the historical generation path's bit for bit; virtual parties
        (``party`` beyond the schedule) reuse a shard's shift trajectory with
        private data draws.
        """
        regime = self.schedule.regime_of(window, shard)
        prior = self.schedule.prior_of(window, shard)
        n_train, n_test = self.spec.train_per_window, self.spec.test_per_window

        carry = 0
        prev_regime = self.schedule.regime_of(window - 1, shard) if window > 0 else None
        regime_changed = (prev_regime is not None
                          and prev_regime.regime_id != regime.regime_id)
        if self.sliding_overlap > 0 and regime_changed:
            carry = int(round(self.sliding_overlap * n_train))

        def train() -> Split:
            x, y = self._generate_split(
                party, window, n_train - carry, "train", regime, prior
            )
            if carry:
                prev_prior = self.schedule.prior_of(window - 1, shard)
                x_old, y_old = self._generate_split(
                    party, window, carry, "train-overlap", prev_regime, prev_prior
                )
                x, y = np.concatenate([x_old, x]), np.concatenate([y_old, y])
            return x, y

        def test() -> Split:
            return self._generate_split(party, window, n_test, "test", regime, prior)

        return PartyWindowData(
            party_id=party,
            window=window,
            regime=regime,
            label_prior=prior.copy(),
            pending={"train": (n_train, train), "test": (n_test, test)},
        )

    def party_window(self, party: int, window: int) -> PartyWindowData:
        """One in-schedule party's window, cached, train split generated.

        :meth:`PartyPool.begin_window
        <repro.federation.pool.PartyPool.begin_window>` rebinds every
        resident party before the runner calls (and times)
        ``strategy.start_window``; generating the train split here keeps that
        generation out of the shift response.  Only the test split waits for
        the first evaluation.
        """
        if not 0 <= party < self.spec.num_parties:
            raise ValueError(f"party {party} out of range")
        if not 0 <= window < self.spec.num_windows:
            raise ValueError(f"window {window} out of range")
        key = (party, window)
        if key in self._cache:
            return self._cache[key]
        data = self._assemble_window(party, party, window)
        data.split("train")
        self._cache[key] = data
        return data

    def virtual_party_window(self, party: int, window: int) -> PartyWindowData:
        """One window for a party that may lie beyond the schedule.

        Virtual parties (``party >= spec.num_parties``) follow the shift
        trajectory of dataset shard ``party % spec.num_parties`` but draw
        their samples from their own ``(seed, "data", party, ...)`` streams,
        so a million-party population has a million distinct datasets over
        ``num_parties`` schedule slots.  A virtual window comes back with both
        splits pending: the :class:`~repro.federation.pool.PartyPool` binds
        one per materialization and window and the runner's
        :class:`~repro.harness.runner.EvaluatedParties` one per evaluated id
        and window, and each generates only the split it reads (train for a
        party that only trains, test for one that is only measured).
        Virtual windows are *not* cached — they are regenerated on the next
        bind, which is what keeps memory flat in the population size.
        In-schedule ids delegate to :meth:`party_window` (cached, train
        split generated).  This is the one entry point of both binders; the
        two methods stay separate names because the frozen e2e tracer
        resolves each.
        """
        if party < 0:
            raise ValueError(f"party {party} out of range")
        if party < self.spec.num_parties:
            return self.party_window(party, window)
        if not 0 <= window < self.spec.num_windows:
            raise ValueError(f"window {window} out of range")
        return self._assemble_window(party, party % self.spec.num_parties,
                                     window)

    def evict_window(self, window: int) -> None:
        """Drop cached arrays for a window (bounds simulator memory)."""
        for party in range(self.spec.num_parties):
            self._cache.pop((party, window), None)
