"""Party: one federated client in the simulator.

A party owns its private per-window data (each split generated the first
time an operation reads it), a local model replica, and the local operations
of the protocol: training on received parameters,
evaluation on its private test split, penultimate-layer embedding extraction
(for shift detection), and label-histogram reporting.  Raw samples never
cross the party boundary — only parameters, statistics, and embeddings, as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.federated import PartyWindowData
from repro.nn.network import Sequential
from repro.nn.training import LocalTrainingConfig, evaluate, train_local
from repro.utils.params import Params
from repro.utils.rng import spawn_rng


@dataclass
class LocalUpdate:
    """What a party returns from one local training pass."""

    party_id: int
    params: Params
    num_samples: int
    mean_loss: float


class Party:
    """A federated client with per-window private data."""

    def __init__(self, party_id: int, model: Sequential, num_classes: int,
                 seed: int = 0, population: int | None = None) -> None:
        self.party_id = party_id
        self.num_classes = num_classes
        self.seed = seed
        self.population = population
        self._model = model
        self._data: PartyWindowData | None = None
        self._last_window: int | None = None

    def _describe(self) -> str:
        if self.population is not None:
            return f"party {self.party_id} (population {self.population})"
        return f"party {self.party_id}"

    # ------------------------------------------------------------------ data plane

    def set_window_data(self, data: PartyWindowData) -> None:
        if data.party_id != self.party_id:
            raise ValueError(
                f"window {data.window} data for party {data.party_id} "
                f"given to {self._describe()}"
            )
        self._data = data
        self._last_window = data.window

    @property
    def data(self) -> PartyWindowData:
        if self._data is None:
            hint = ("" if self._last_window is None
                    else f" (window {self._last_window} data was released)")
            raise RuntimeError(
                f"{self._describe()} has no window data yet{hint}")
        return self._data

    def release(self) -> None:
        """Drop the window-data reference.

        Pool eviction calls this so a dematerialized party can never keep a
        data shard alive: the splits it generated and the generators of the
        splits it never read (which reference the dataset) go with it.  The
        next ``set_window_data`` rebinds it.
        """
        self._data = None

    @property
    def dtype(self) -> np.dtype:
        """The bound model precision — what round banks must allocate at."""
        return self._model.dtype

    def label_histogram(self) -> np.ndarray:
        """Normalized train-label histogram (reported to the aggregator)."""
        return self.data.label_histogram(self.num_classes)

    def _split(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        if split not in ("train", "test"):
            raise ValueError(f"split must be 'test' or 'train'; got {split!r}")
        return self.data.split(split)

    # ------------------------------------------------------------------ protocol ops

    def local_train(self, params: Params, config: LocalTrainingConfig,
                    round_tag: object = 0,
                    out_flat: np.ndarray | None = None) -> LocalUpdate:
        """Train a local replica initialized at ``params`` on this window.

        ``out_flat`` (optionally a :class:`~repro.utils.params.ParamBank`
        row) receives the flat trained parameters; the update's ``params``
        are then zero-copy views of it, so the aggregator can stack cohort
        updates without re-flattening.
        """
        self._model.set_params(params)
        rng = spawn_rng(self.seed, "party-train", self.party_id, round_tag)
        result = train_local(
            self._model, self.data.x_train, self.data.y_train, config, rng,
            global_params=params if config.prox_mu > 0 else None,
            out_flat=out_flat,
        )
        return LocalUpdate(
            party_id=self.party_id,
            params=result.params,
            num_samples=result.num_samples,
            mean_loss=result.mean_loss,
        )

    def evaluate(self, params: Params,
                 split: str = "test") -> tuple[float, float]:
        """(accuracy, loss) of ``params`` on this party's local split."""
        x, y = self._split(split)
        self._model.set_params(params)
        return evaluate(self._model, x, y)

    def loss_on(self, params: Params, split: str = "train") -> float:
        """Local loss of a model — the signal FedDrift clusters on."""
        _acc, loss = self.evaluate(params, split)
        return loss

    def embeddings_with_labels(self, params: Params, split: str = "train",
                               max_samples: int | None = None,
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Penultimate-layer embeddings of this window under ``params`` —
        Algorithm 1's ``phi(x_i)``, the latent profile shared instead of raw
        data — plus their labels, which never leave the party.

        The label column exists so the party can compute class-conditional
        detection statistics locally (Algorithm 1); only embeddings, the
        label *histogram*, and scalar scores are transmitted.
        """
        x, y = self._split(split)
        self._model.set_params(params)
        if max_samples is not None and x.shape[0] > max_samples:
            rng = spawn_rng(self.seed, "party-embed", self.party_id, split)
            idx = rng.choice(x.shape[0], size=max_samples, replace=False)
            x, y = x[idx], y[idx]
        return self._model.features(x), np.asarray(y).copy()
