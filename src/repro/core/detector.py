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
That report is also all the party keeps for its next window's deltas; the
bootstrap window's report has no previous window, so both its deltas are
zero.  Embeddings are float64 from the report on (the detection island),
whatever the parameter plane's dtype.

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
    """What one party transmits to the aggregator at a window boundary, and
    what it keeps on-device for the next window's deltas (O(m*d) storage).

    ``labels`` class-tags the embedding rows so the aggregator's latent-
    memory matching can be class-conditional (the same granularity as the
    label histogram the party already reports).
    """

    party_id: int
    embeddings: np.ndarray  # subsampled P_t(X), shape (m, d), float64
    labels: np.ndarray  # class tags of the embedding rows, shape (m,)
    label_histogram: np.ndarray  # normalized y_t
    delta_cov: float
    delta_label: float

    @property
    def centroid(self) -> np.ndarray:
        return self.embeddings.mean(axis=0)


def compute_party_report(parties: Sequence[Party],
                         embedded: Sequence[tuple[np.ndarray, np.ndarray]],
                         prev: Sequence[PartyShiftReport | None],
                         gamma: float | None = None) -> list[PartyShiftReport]:
    """Run Algorithm 1 for a resident batch of parties.

    ``embedded`` is each party's ``(embeddings, labels)`` under the frozen
    encoder (the server embeds a batch as one grouped forward,
    :func:`~repro.federation.party.embed_parties`) and ``prev`` its report
    from the previous window.  Returns each party's report, in order; a
    report is also the state its party keeps for the next window.  A party
    without a previous report (first window) reports both deltas as zero,
    as in the algorithm.  Every scored party's ``delta_cov`` comes from one
    :func:`~repro.detection.mmd.class_conditional_mmd_batch` call, which
    raises on a non-finite embedding row and names its party, and its
    ``delta_label`` from one :func:`~repro.detection.divergence.jsd_many`.

    Embeddings are cast to float64 here, at the reporting boundary, so every
    downstream statistic — MMD deltas, calibration nulls, clustering,
    latent-memory matching — runs on the float64 detection island whatever
    the parameter plane's dtype (on the float64 plane the cast is a no-op).
    """
    reports = [
        PartyShiftReport(
            party_id=party.party_id,
            embeddings=np.asarray(embeddings, dtype=np.float64),
            labels=labels,
            label_histogram=party.label_histogram(),
            delta_cov=0.0,
            delta_label=0.0,
        )
        for party, (embeddings, labels) in zip(parties, embedded, strict=True)
    ]
    scored = [k for k, (_report, p) in enumerate(zip(reports, prev, strict=True))
              if p is not None]
    if not scored:
        return reports
    delta_cov = class_conditional_mmd_batch(
        [reports[k].embeddings for k in scored], [reports[k].labels for k in scored],
        [prev[k].embeddings for k in scored], [prev[k].labels for k in scored],
        gamma, [reports[k].party_id for k in scored])
    delta_label = jsd_many([reports[k].label_histogram for k in scored],
                           [prev[k].label_histogram for k in scored])
    for k, cov, label in zip(scored, delta_cov, delta_label):
        reports[k].delta_cov = float(cov)
        reports[k].delta_label = float(label)
    return reports
