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

from dataclasses import dataclass

import numpy as np

from repro.detection.divergence import jsd
from repro.detection.mmd import class_conditional_mmd
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


def compute_party_report(party: Party, embeddings: np.ndarray,
                         labels: np.ndarray,
                         prev_state: PartyLocalState | None,
                         gamma: float | None = None,
                         stat_dtype: np.dtype | str | None = None,
                         ) -> tuple[PartyShiftReport, PartyLocalState]:
    """Run Algorithm 1 for one party on its window's embeddings.

    ``embeddings`` / ``labels`` are ``party.embeddings_with_labels`` under
    the frozen encoder (the server embeds a window's parties as one grouped
    forward, :func:`~repro.federation.party.embed_parties`).  Returns the
    transmit report plus the party's refreshed local state (current
    embeddings/labels/histogram, retained for the next window's deltas).
    When ``prev_state`` is absent (first window) both deltas are zero, as in
    the algorithm.

    ``stat_dtype`` is the detection island's dtype (the run's
    ``precision.detection_stats``): embeddings are cast to it here, at the
    reporting boundary, so every downstream statistic — MMD deltas,
    clustering, latent-memory matching — runs at that precision regardless
    of the model plane's dtype.  ``None`` keeps the encoder's dtype; a
    float64 cast of float64 embeddings is a no-op, which is what keeps the
    legacy all-float64 plane bitwise unchanged.
    """
    if stat_dtype is not None:
        embeddings = np.asarray(embeddings, dtype=stat_dtype)
    histogram = party.label_histogram()
    if prev_state is not None:
        delta_cov = class_conditional_mmd(
            embeddings, labels, prev_state.embeddings, prev_state.labels, gamma
        )
        delta_label = jsd(histogram, prev_state.histogram)
    else:
        delta_cov = 0.0
        delta_label = 0.0
    report = PartyShiftReport(
        party_id=party.party_id,
        embeddings=embeddings,
        labels=labels,
        label_histogram=histogram,
        delta_cov=float(delta_cov),
        delta_label=float(delta_label),
    )
    state = PartyLocalState(
        embeddings=embeddings,
        labels=labels,
        histogram=histogram,
    )
    return report, state
