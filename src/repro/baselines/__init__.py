"""Comparative FL techniques (paper Section 6, "Comparative Techniques").

* :class:`~repro.baselines.fedavg.FedAvgStrategy` — plain FedAvg (reference).
* :class:`~repro.baselines.fedprox.FedProxStrategy` — FedAvg + proximal term;
  one global model, no shift awareness.
* :class:`~repro.baselines.oort.OortStrategy` — utility-guided participant
  selection; assumes static utility, so it underreacts to shifts.
* :class:`~repro.baselines.fielding.FieldingStrategy` — label-distribution
  clustering with per-cluster models; adapts to label drift but is blind to
  covariate shift.
* :class:`~repro.baselines.feddrift.FedDriftStrategy` — loss-pattern drift
  detection with multiple models; coarse adaptation, no explicit
  covariate/label modelling.
"""
