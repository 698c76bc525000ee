"""Party-side shift detection (Algorithm 1).

Each party embeds its current window through the frozen encoder, estimates
its covariate profile (a subsample of embeddings) and normalized label
histogram, and — when a previous window exists — computes

* ``delta_cov`` — class-conditional MMD between the current and previous
  windows' embeddings.  Conditioning on the party's *own* labels (which
  never leave the device) removes label-composition sampling noise from the
  covariate statistic; pure-``P(Y)`` movement is the JSD detector's job.
* ``delta_label = JSD(y_t, y_{t-1})`` over normalized label histograms.

Only ``{P_t(X), y_t, delta_cov, delta_label}`` leave the party — embeddings,
a histogram, and two scalars, exactly the transmit set of Algorithm 1.

The encoder is the bootstrap global model frozen after W0; a fixed encoder
keeps MMD scores comparable across windows and experts (the paper's
acknowledged "reliance on frozen encoders" design point).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.detection.divergence import jsd_many
from repro.detection.mmd import class_conditional_mmd_batch
from repro.federation.party import Party


@dataclass
class PartyShiftReport:
    """What one party transmits to the aggregator at a window boundary.

    ``labels`` class-tags the embedding rows so the aggregator's latent-
    memory matching can be class-conditional (the same granularity as the
    label histogram the party already reports).
    """

    party_id: int
    embeddings: np.ndarray  # subsampled P_t(X), shape (m, d)
    labels: np.ndarray  # class tags of the embedding rows, shape (m,)
    label_histogram: np.ndarray  # normalized y_t
    delta_cov: float
    delta_label: float

    @property
    def centroid(self) -> np.ndarray:
        return self.embeddings.mean(axis=0)


@dataclass
class PartyLocalState:
    """Statistics a party keeps on-device between windows (O(m*d) storage)."""

    embeddings: np.ndarray
    labels: np.ndarray
    histogram: np.ndarray


def compute_party_report(parties: Sequence[Party],
                         embedded: Sequence[tuple[np.ndarray, np.ndarray]],
                         prev_states: Sequence[PartyLocalState | None],
                         gamma: float | None = None,
                         stat_dtype: np.dtype | str | None = None,
                         ) -> list[tuple[PartyShiftReport, PartyLocalState]]:
    """Run Algorithm 1 for a resident batch of parties.

    ``embedded`` is each party's ``(embeddings, labels)`` under the frozen
    encoder (the server embeds a batch as one grouped forward,
    :func:`~repro.federation.party.embed_parties`) and ``prev_states`` its
    local state from the previous window.  Returns each party's transmit
    report plus its refreshed local state (current
    embeddings/labels/histogram, retained for the next window's deltas), in
    order.  A party without a previous state (first window) reports both
    deltas as zero, as in the algorithm.  Every scored party's ``delta_cov``
    comes from one :func:`~repro.detection.mmd.class_conditional_mmd_batch`
    call, which raises on a non-finite embedding row and names its party, and
    its ``delta_label`` from one :func:`~repro.detection.divergence.jsd_many`.

    ``stat_dtype`` is the detection island's dtype (the run's
    ``precision.detection_stats``): embeddings are cast to it here, at the
    reporting boundary, so every downstream statistic — MMD deltas,
    clustering, latent-memory matching — runs at that precision regardless
    of the model plane's dtype.  ``None`` keeps the encoder's dtype; a
    float64 cast of float64 embeddings is a no-op, which is what keeps the
    legacy all-float64 plane bitwise unchanged.
    """
    states = [
        PartyLocalState(
            embeddings=(embeddings if stat_dtype is None
                        else np.asarray(embeddings, dtype=stat_dtype)),
            labels=labels,
            histogram=party.label_histogram(),
        )
        for party, (embeddings, labels) in zip(parties, embedded, strict=True)
    ]
    scored = [k for k, prev in enumerate(prev_states) if prev is not None]
    delta_cov = np.zeros(len(states))
    delta_cov[scored] = class_conditional_mmd_batch(
        [states[k].embeddings for k in scored], [states[k].labels for k in scored],
        [prev_states[k].embeddings for k in scored],
        [prev_states[k].labels for k in scored],
        gamma, [parties[k].party_id for k in scored])
    delta_label = np.zeros(len(states))
    if scored:
        delta_label[scored] = jsd_many([states[k].histogram for k in scored],
                                       [prev_states[k].histogram for k in scored])
    results = []
    for party, state, _prev, cov, label in zip(parties, states, prev_states, delta_cov,
                                               delta_label, strict=True):
        report = PartyShiftReport(
            party_id=party.party_id,
            embeddings=state.embeddings,
            labels=state.labels,
            label_histogram=state.histogram,
            delta_cov=float(cov),
            delta_label=float(label),
        )
        results.append((report, state))
    return results
