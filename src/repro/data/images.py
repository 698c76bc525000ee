"""Class-template synthetic image generator.

Each class is defined by a fixed spatial template — a mixture of Gaussian
bumps plus an oriented sinusoidal texture, both drawn once per domain seed.
Samples are templates plus per-sample pixel noise, brightness jitter and
small translations.  This gives a dataset where:

* ``P(Y|X)`` is stable and learnable (classes are visually distinct);
* corruptions (fog, blur, noise, ...) move ``P(X)`` without changing class
  semantics — exactly the covariate-shift regime of the -C benchmarks;
* label priors can be skewed per party/window to create label shift.

Images are float arrays in [0, 1] with shape (n, channels, size, size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class ImageDomainSpec:
    """Configuration of a synthetic image domain."""

    num_classes: int
    image_size: int = 12
    channels: int = 1
    bumps_per_class: int = 3
    noise_scale: float = 0.10
    brightness_jitter: float = 0.08
    max_translation: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.image_size < 4:
            raise ValueError("image_size must be at least 4")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.image_size, self.image_size)


def _class_template(spec: ImageDomainSpec, class_id: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Build the (channels, size, size) template for one class."""
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    canvas = np.zeros((size, size))
    for _ in range(spec.bumps_per_class):
        cy, cx = rng.uniform(1.5, size - 2.5, size=2)
        sigma = rng.uniform(size * 0.10, size * 0.22)
        amp = rng.uniform(0.55, 1.0)
        canvas += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    # Oriented sinusoidal texture, class-specific frequency and phase.
    theta = rng.uniform(0, np.pi)
    freq = rng.uniform(0.5, 1.4) * 2 * np.pi / size * (1 + class_id % 3)
    phase = rng.uniform(0, 2 * np.pi)
    texture = 0.25 * np.sin(freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
    canvas = canvas + texture
    canvas -= canvas.min()
    peak = canvas.max()
    if peak > 0:
        canvas /= peak
    canvas = 0.15 + 0.7 * canvas  # keep head-room for corruption operators
    if spec.channels == 1:
        return canvas[None, :, :]
    # Three-channel variant: per-channel gains so colour jitter is meaningful.
    gains = rng.uniform(0.6, 1.0, size=3)
    return np.stack([canvas * g for g in gains], axis=0)


class SyntheticImageGenerator:
    """Samples labelled images from a fixed synthetic domain."""

    def __init__(self, spec: ImageDomainSpec) -> None:
        self.spec = spec
        template_rng = spawn_rng(spec.seed, "image-domain-templates")
        self.templates = np.stack(
            [_class_template(spec, c, template_rng) for c in range(spec.num_classes)]
        )

    def sample_class(self, class_id: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` images of a single class."""
        if not 0 <= class_id < self.spec.num_classes:
            raise ValueError(f"class_id {class_id} out of range")
        if n < 0:
            raise ValueError("n must be non-negative")
        spec = self.spec
        template = self.templates[class_id]
        if spec.max_translation > 0 and n > 0:
            shifts = rng.integers(-spec.max_translation, spec.max_translation + 1,
                                  size=(n, 2))
            # Every image's circular (dy, dx) roll as one gather: pixel
            # (r, c) of image i is template pixel ((r - dy_i) % size,
            # (c - dx_i) % size), which is what np.roll computes.
            grid = np.arange(spec.image_size)
            rows = (grid - shifts[:, :1]) % spec.image_size
            cols = (grid - shifts[:, 1:]) % spec.image_size
            base = template[:, rows[:, :, None], cols[:, None, :]].transpose(1, 0, 2, 3)
        else:
            base = np.repeat(template[None], n, axis=0)
        noise = rng.normal(0.0, spec.noise_scale, size=base.shape)
        brightness = rng.normal(0.0, spec.brightness_jitter, size=(n, 1, 1, 1))
        return np.clip(base + noise + brightness, 0.0, 1.0)

    def sample(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one image per entry of ``labels`` (vectorized by class)."""
        labels = np.asarray(labels)
        out = np.empty((labels.size, *self.spec.input_shape))
        for class_id in np.unique(labels):
            idx = np.nonzero(labels == class_id)[0]
            out[idx] = self.sample_class(int(class_id), idx.size, rng)
        return out

    def sample_dataset(self, label_prior: np.ndarray, n: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labelled images with classes ~ ``label_prior``."""
        prior = np.asarray(label_prior, dtype=np.float64)
        if prior.shape != (self.spec.num_classes,):
            raise ValueError(
                f"label_prior must have shape ({self.spec.num_classes},); got {prior.shape}"
            )
        labels = rng.choice(self.spec.num_classes, size=n, p=prior / prior.sum())
        return self.sample(labels, rng), labels
