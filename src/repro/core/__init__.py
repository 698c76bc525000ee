"""ShiftEx: the paper's shift-aware mixture-of-experts framework.

* :class:`~repro.core.config.ShiftExConfig` — all knobs (the ``delta_cov``
  override, tau, gamma, latent-memory and FLIPS parameters);
* :mod:`~repro.core.detector` — party-side shift detection (Algorithm 1);
* :class:`~repro.core.server.ShiftExStrategy` — aggregator-side orchestration
  (Algorithm 2): threshold calibration, shifted-party clustering, latent
  memory matching, expert creation/update with FLIPS, local fine-tuning for
  small clusters, and expert consolidation.
"""
