"""Synthetic federated datasets with controllable covariate and label shift.

The paper evaluates on FMoW, Tiny-ImageNet-C, CIFAR-10-C, FEMNIST and
Fashion-MNIST.  Those corpora are not available offline, so this package
builds the closest synthetic equivalents that exercise the same code paths:

* :mod:`repro.data.images` — a class-template image generator whose classes
  are separable by small models (``P(Y|X)`` is stable and learnable);
* :mod:`repro.data.corruptions` — the corruption families of the -C datasets
  (weather, noise, blur, digital) plus the PyTorch-transform-style shifts
  used for FEMNIST/Fashion-MNIST, each at 5 severities (moves ``P(X)``);
* :mod:`repro.data.partition` — Dirichlet non-IID partitioning and per-window
  label-prior resampling (moves ``P(Y)``);
* :mod:`repro.data.registry` — the five simulated dataset specs and their
  per-window shift schedules (50 % of parties shift per window, recurring
  regimes for expert-reuse dynamics);
* :mod:`repro.data.federated` — materializes per-party, per-window train/test
  arrays for the FL simulator.
"""
