"""ShiftEx configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ShiftExConfig:
    """All ShiftEx hyper-parameters, named as in the paper.

    Thresholds ``delta_cov`` / ``delta_label`` default to ``None`` meaning
    *calibrate from bootstrap null distributions* (Section 5); setting them
    explicitly bypasses calibration (used by the threshold-sensitivity
    ablation).  ``epsilon`` is the latent-memory reuse threshold of Section
    5.2.2; when ``None`` it is tied to the calibrated ``delta_cov`` scaled by
    ``epsilon_scale`` (reuse requires the cluster to look *closer* to an
    expert's regime than the shift-detection bar, scaled to tolerate memory
    staleness).  ``tau`` (consolidation cosine) and ``epsilon_scale`` are
    plain hyper-parameters, the same at every run precision.
    """

    # Detection thresholds (Section 5).
    delta_cov: float | None = None
    delta_label: float | None = None
    p_value: float = 0.02
    num_bootstrap: int = 100

    # Expert matching and consolidation (Sections 5.2.2, 5.2.5).
    epsilon: float | None = None
    epsilon_scale: float = 1.25
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
    enable_flips: bool = True
    enable_label_detection: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.p_value < 1.0:
            raise ValueError("p_value must be in (0, 1)")
        if self.num_bootstrap <= 0:
            raise ValueError("num_bootstrap must be positive")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ValueError(f"epsilon must be non-negative; got {self.epsilon}")
        if not self.epsilon_scale > 0:
            raise ValueError(
                f"epsilon_scale must be positive; got {self.epsilon_scale}")
        if not -1.0 <= self.tau <= 1.0:
            raise ValueError("tau must be a valid cosine bound")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be at least 1")
        if self.embedding_samples < 2:
            raise ValueError("embedding_samples must be at least 2")
        if self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be non-negative")
