"""ShiftEx configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ShiftExConfig:
    """All ShiftEx hyper-parameters, named as in the paper.

    ``delta_cov`` defaults to ``None``, meaning *calibrate from the bootstrap
    null distribution* (Section 5); setting it bypasses calibration (the
    threshold-sensitivity ablation) and moves the reuse threshold epsilon
    with it.  The label threshold ``delta_label`` and epsilon are always
    the calibrated record's
    (:class:`~repro.detection.calibration.CalibratedThresholds`).  ``tau``
    (consolidation cosine) is a plain hyper-parameter, the same at every run
    precision.  Every check is written so that NaN fails it too, and fails
    when the plan loads.
    """

    # Detection thresholds (Section 5).
    delta_cov: float | None = None
    p_value: float = 0.02
    num_bootstrap: int = 100

    # Expert consolidation (Section 5.2.5).
    tau: float = 0.99

    # Clustering of shifted parties (Section 5.2.1).
    k_max: int = 6
    min_cluster_size: int = 3  # the paper's gamma

    # Latent memory (Section 5.2.2).
    memory_capacity: int = 64
    memory_eta: float = 0.3

    # Party-side reporting (Algorithm 1).
    embedding_samples: int = 48  # max embeddings a party reports per window

    # FLIPS participant selection.
    flips_max_clusters: int = 4

    # Local fine-tuning for small clusters (Section 5.2.3).
    finetune_epochs: int = 2

    # Feature toggles for ablations.
    enable_latent_memory: bool = True
    enable_consolidation: bool = True
    enable_label_detection: bool = True

    def __post_init__(self) -> None:
        if self.delta_cov is not None and not 0.0 <= self.delta_cov < float("inf"):
            raise ValueError(
                f"delta_cov must be finite and non-negative; got {self.delta_cov}")
        if not 0.0 < self.p_value < 1.0:
            raise ValueError("p_value must be in (0, 1)")
        if self.num_bootstrap <= 0:
            raise ValueError("num_bootstrap must be positive")
        if not -1.0 <= self.tau <= 1.0:
            raise ValueError("tau must be a valid cosine bound")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be at least 1")
        if not self.memory_capacity >= 1:
            raise ValueError(
                f"memory_capacity must be at least 1; got {self.memory_capacity}")
        if not 0.0 < self.memory_eta <= 1.0:
            raise ValueError(f"memory_eta must be in (0, 1]; got {self.memory_eta}")
        if self.embedding_samples < 2:
            raise ValueError("embedding_samples must be at least 2")
        if not self.flips_max_clusters >= 1:
            raise ValueError(
                f"flips_max_clusters must be at least 1; got {self.flips_max_clusters}")
        if self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be non-negative")
