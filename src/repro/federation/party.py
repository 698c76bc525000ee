"""Party: one federated client in the simulator.

A party owns its private per-window data (each split generated the first
time an operation reads it) and the local operations of the protocol, which
run on the model it is bound to (one per run, shared by every party; each op
starts with ``set_params``): training on received parameters,
evaluation on its private test split, penultimate-layer embedding extraction
(for shift detection), and label-histogram reporting.  Raw samples never
cross the party boundary — only parameters, statistics, and embeddings, as
in the paper.

Training is :func:`train_parties`: a cohort's parties whose train splits
have one size train as one stacked ``train_local`` call, each replica on its
own split with its own generator, and :meth:`Party.local_train` is the
one-member call of it.  Every other forward is grouped the same way:
:func:`evaluate_parties` and :func:`embed_parties` run the members that share
a model and a row count as one forward of ``Sequential.shared(r)``, and
:meth:`Party.evaluate` / :meth:`Party.embeddings_with_labels` are their
one-member calls.  A group of one takes the same path, ``stacked(1)`` or
``shared(1)``: no party op runs on the plain model, which stays the
reference the stacked byte pins compare against.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.federated import PartyWindowData
from repro.nn.network import Sequential
from repro.nn.training import LocalTrainingConfig, evaluate, mean_loss, train_local
from repro.utils.rng import spawn_rng

# The activation elements one grouped forward may hold in any layer: a group
# of parties with n rows each runs as stacks of r <= FORWARD_ELEMENTS // (n *
# w) replicas, w the model's widest per-row layer output.  Stacking pays only
# while a forward is overhead-bound (a small MLP); past this size a stack
# spills the cache and loses to per-party calls (a conv net).
FORWARD_ELEMENTS = 65_536


@dataclass
class LocalUpdate:
    """What a party returns from one local training pass."""

    party_id: int
    params: np.ndarray  # the flat trained vector: a bank row, or a fresh copy
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

    def label_histogram(self) -> np.ndarray:
        """Normalized train-label histogram (reported to the aggregator)."""
        return self.data.label_histogram(self.num_classes)

    def _split(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        if split not in ("train", "test"):
            raise ValueError(f"split must be 'test' or 'train'; got {split!r}")
        return self.data.split(split)

    def train_split(self) -> tuple[np.ndarray, np.ndarray]:
        """This window's train split ``(x, y)`` — what training reads."""
        return self._split("train")

    # ------------------------------------------------------------------ protocol ops

    def local_train(self, params: np.ndarray, config: LocalTrainingConfig,
                    round_tag: object = 0,
                    out_flat: np.ndarray | None = None) -> LocalUpdate:
        """Train a local replica initialized at ``params`` on this window.

        The one-member call of :func:`train_parties`.  ``out_flat``
        (optionally a :class:`~repro.utils.params.ParamBank` row) receives
        the flat trained parameters and is the update's ``params``, so the
        aggregator stacks cohort updates without copying them.
        """
        return train_parties([(self, *self.train_split())], params, config,
                             round_tag, [out_flat])[0]

    def evaluate(self, params: np.ndarray,
                 split: str = "test") -> tuple[float, float]:
        """(accuracy, loss) of ``params`` on this party's local split: the
        one-member call of :func:`evaluate_parties`."""
        return evaluate_parties([(self, params)], split)[0]

    def embeddings_with_labels(self, params: np.ndarray, split: str = "train",
                               max_samples: int | None = None,
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Penultimate-layer embeddings of this window under ``params`` —
        Algorithm 1's ``phi(x_i)``, the latent profile shared instead of raw
        data — plus their labels, which never leave the party.  The
        one-member call of :func:`embed_parties`.

        The label column exists so the party can compute class-conditional
        detection statistics locally (Algorithm 1); only embeddings, the
        label *histogram*, and scalar scores are transmitted.
        """
        return embed_parties([self], params, split, max_samples)[0]

    def _embedding_rows(self, split: str, max_samples: int | None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """The rows Algorithm 1 embeds: the split, or ``max_samples`` of its
        rows drawn from ``spawn_rng(seed, "party-embed", party_id, split)``,
        with their labels (never a view of the split's)."""
        x, y = self._split(split)
        if max_samples is not None and x.shape[0] > max_samples:
            rng = spawn_rng(self.seed, "party-embed", self.party_id, split)
            idx = rng.choice(x.shape[0], size=max_samples, replace=False)
            return x[idx], y[idx]
        return x, np.asarray(y).copy()


def _forward_groups(model: Sequential, keys: Sequence[object],
                    xs: Sequence[np.ndarray]) -> Iterator[list[int]]:
    """Member indices, one list per forward: members with one key and one
    row count, cut into stacks of at most ``FORWARD_ELEMENTS // (n * w)``."""
    groups: dict[tuple[object, int], list[int]] = {}
    for i, (key, x) in enumerate(zip(keys, xs)):
        groups.setdefault((key, len(x)), []).append(i)
    for (_key, n), members in groups.items():
        width = model.activation_width(xs[members[0]].shape[1:])
        size = max(1, FORWARD_ELEMENTS // max(1, n * width))
        for start in range(0, len(members), size):
            yield members[start:start + size]


def _stack(model: Sequential, members: list[int], xs: Sequence[np.ndarray],
           ) -> tuple[Sequential, np.ndarray]:
    """The model and input of one forward: ``model.shared(r)`` on the
    members' batches."""
    return (model.shared(len(members)),
            np.stack([xs[i] for i in members], dtype=model.dtype))


def evaluate_parties(evaluees: Sequence[tuple[Party, np.ndarray]],
                     split: str = "test") -> list[tuple[float, float]]:
    """(accuracy, loss) of each ``(party, params)`` on the party's ``split``.

    Members served the same params object whose splits have one size run as
    one :func:`~repro.nn.training.evaluate` call on the first member's model
    (``Sequential.shared`` stacks, bounded by ``FORWARD_ELEMENTS``); every
    member's pair is the bytes a call on its own returns.  Every member must
    hold its window data until the call.
    """
    reads = [party._split(split) for party, _params in evaluees]
    if not reads:
        return []
    model = evaluees[0][0]._model
    xs = [x for x, _y in reads]
    results: list[tuple[float, float]] = [None] * len(evaluees)
    for members in _forward_groups(model, [id(p) for _q, p in evaluees], xs):
        model.set_params(evaluees[members[0]][1])
        runner, x = _stack(model, members, xs)
        accs, losses = evaluate(runner, x, np.stack([reads[i][1] for i in members]))
        for k, i in enumerate(members):
            results[i] = (float(accs[k]), float(losses[k]))
    return results


def embed_parties(parties: Sequence[Party], params: np.ndarray, split: str = "train",
                  max_samples: int | None = None,
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each party's ``(embeddings, labels)`` under ``params`` (see
    :meth:`Party.embeddings_with_labels`).

    Parties whose rows have one count run as one ``Sequential.features``
    call on the first party's model (``Sequential.shared`` stacks, bounded
    by ``FORWARD_ELEMENTS``); every party's embeddings are the bytes a call
    on its own returns.  Every party must hold its window data until the
    call.
    """
    rows = [party._embedding_rows(split, max_samples) for party in parties]
    if not rows:
        return []
    model = parties[0]._model
    model.set_params(params)
    xs = [x for x, _y in rows]
    feats: list[np.ndarray] = [None] * len(rows)
    for members in _forward_groups(model, [None] * len(rows), xs):
        runner, x = _stack(model, members, xs)
        out = runner.features(x)
        for k, i in enumerate(members):
            feats[i] = out[k].copy()
    return [(f, y) for f, (_x, y) in zip(feats, rows)]


def train_parties(trainees: list[tuple[Party, np.ndarray, np.ndarray]],
                  params: np.ndarray, config: LocalTrainingConfig,
                  round_tag: object, outs: list[np.ndarray | None],
                  ) -> list[LocalUpdate]:
    """Train each ``(party, x, y)`` trainee from ``params`` on its split.

    Trainees whose splits have equal size train as one stacked
    :func:`~repro.nn.training.train_local` call on a ``Sequential.stacked``
    replica of the first one's model, allocated per call (a trainee alone
    in its size trains on ``stacked(1)``); trainee ``i`` draws
    from ``spawn_rng(seed, "party-train", party_id, round_tag)`` exactly as a
    party training alone does, so its update is the same bytes.  ``outs[i]``
    (a bank row, or None for a fresh vector) receives its trained flat
    parameters.  A trainee without samples reports ``params`` (at the
    model's precision), a NaN loss and zero samples.  Returns one update per
    trainee, in order.
    """
    groups: dict[int, list[int]] = {}
    for i, (_party, x, _y) in enumerate(trainees):
        groups.setdefault(len(x), []).append(i)
    anchor = params if config.prox_mu > 0 else None
    updates: list[LocalUpdate] = [None] * len(trainees)
    for members in groups.values():
        group = [trainees[i] for i in members]
        rngs = [spawn_rng(party.seed, "party-train", party.party_id, round_tag)
                for party, _x, _y in group]
        # Pool invariant 2 lets the plain model take params, so the stack
        # is written once, by its broadcast copy.
        base = group[0][0]._model
        base.set_params(params)
        model = base.stacked(len(group))
        result = train_local(
            model, np.stack([x for _p, x, _y in group], dtype=model.dtype),
            np.stack([y for _p, _x, y in group]), config, rngs,
            global_params=anchor)
        for k, i in enumerate(members):
            party, x, _y = group[k]
            out = outs[i]
            if out is None:
                out = model.flat_params[k].copy()
            else:
                np.copyto(out, model.flat_params[k], casting="same_kind")
            updates[i] = LocalUpdate(party.party_id, out, len(x),
                                     mean_loss(result.replica_losses[k]))
    return updates
