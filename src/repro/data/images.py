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

A split's draws are those of ``rng.choice`` for its labels, then per class
``integers`` (translations), ``standard_normal`` (pixel noise) and ``normal``
(brightness), byte for byte and to the generator's final state, but made at
the bit generator: the translations are raw PCG64 words, mapped to shifts in
one vectorised step.  That rests on two numpy facts: PCG64 serves 32-bit
draws low half first, and ``integers`` maps a 32-bit draw ``u`` at span
``s`` to ``(u·s) >> 32``, rejecting it only when ``(u·s) mod 2^32 < 2^32 mod
s``.  A split that would have rejected a draw restores its state snapshot
and runs the per-class ``integers`` / ``normal`` loop instead; a bit
generator other than PCG64 runs that loop from the start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import spawn_rng

# ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


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
        # Every template under every (dy, dx) circular translation, indexed
        # [dy + t, dx + t, class]: a sample's base image is one lookup.
        t = spec.max_translation
        self._translated = np.stack([
            np.stack([np.roll(self.templates, (dy, dx), axis=(2, 3))
                      for dx in range(-t, t + 1)])
            for dy in range(-t, t + 1)])

    def sample(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one image per entry of ``labels``.

        The generator is read class by class in ascending class order — each
        class's translations, pixel noise and brightness, as a per-class
        sampler would draw them (:meth:`_draw`) — and the split is then
        assembled in one add / add / clip.  ``standard_normal`` scaled by
        ``noise_scale`` afterwards is ``normal(0, noise_scale)`` to the byte.
        """
        labels = np.asarray(labels)
        spec = self.spec
        if not labels.size:
            return np.empty((0, *spec.input_shape))
        if not 0 <= labels.min() <= labels.max() < spec.num_classes:
            raise ValueError(f"labels must lie in [0, {spec.num_classes}); "
                             f"got {labels.min()}..{labels.max()}")
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
        edges = [0, *cuts, labels.size]  # one run per class
        noise = np.empty((labels.size, *spec.input_shape))
        brightness = np.empty((labels.size, 1, 1, 1))
        base = self._draw(edges, ordered, noise, brightness, rng)
        noise *= spec.noise_scale
        noise += base
        noise += brightness
        out = np.empty_like(noise)
        out[order] = np.clip(noise, 0.0, 1.0, out=noise)
        return out

    def _draw(self, edges: list[int], ordered: np.ndarray, noise: np.ndarray,
              brightness: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Fill ``noise`` with standard normals and ``brightness`` with
        ``normal(0, brightness_jitter)``, one class run of ``edges`` after
        another, and return each row's translated template.

        Each run draws what ``integers(-t, t + 1, size=(k, 2))``, then
        ``standard_normal`` and ``normal`` would, at the bit generator (see
        the module docstring): ``random_raw(k)``, one PCG64 word per row, and
        ``standard_normal`` twice, the brightness scaled afterwards
        (``normal`` is ``0.0 + σ·z``).  Numpy would leave the last word's
        high half in ``uinteger``; so does this.  A rejected draw (about one
        word in 2^31 at ``t = 1``) restores the state snapshot and runs the
        per-class loop, as do a buffered half-word at the start and a bit
        generator other than PCG64.
        """
        spec = self.spec
        t = spec.max_translation
        span = 2 * t + 1
        bitgen = rng.bit_generator
        snapshot = bitgen.state if t else None
        if not t or (snapshot["bit_generator"] == "PCG64"
                     and not snapshot["has_uint32"]):
            words = np.zeros(ordered.size, dtype=np.uint64)
            for start, stop in zip(edges, edges[1:]):
                if t:
                    words[start:stop] = bitgen.random_raw(stop - start)
                rng.standard_normal(out=noise[start:stop])
                rng.standard_normal(out=brightness[start:stop])
            # Each row's two draws, low half first, scaled by the span.
            scaled = np.multiply(words.astype("<u8", copy=False).view("<u4"),
                                 span, dtype=np.int64)
            if not t or (scaled & 0xFFFF_FFFF).min() >= (1 << 32) % span:
                if t:
                    state = bitgen.state
                    state["uinteger"] = int(words[-1]) >> 32
                    bitgen.state = state
                brightness *= spec.brightness_jitter
                brightness += 0.0  # as normal(0, σ) adds: -0.0 becomes +0.0
                shifts = scaled >> 32
                return self._translated[shifts[0::2], shifts[1::2], ordered]
            bitgen.state = snapshot
        shifts = np.empty((ordered.size, 2), dtype=np.int64)  # t > 0 here
        for start, stop in zip(edges, edges[1:]):
            shifts[start:stop] = rng.integers(-t, t + 1, size=(stop - start, 2))
            rng.standard_normal(out=noise[start:stop])
            brightness[start:stop] = rng.normal(0.0, spec.brightness_jitter,
                                                size=(stop - start, 1, 1, 1))
        return self._translated[shifts[:, 0] + t, shifts[:, 1] + t, ordered]

    def sample_dataset(self, label_prior: np.ndarray, n: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labelled images with classes ~ ``label_prior``.

        The labels are ``rng.choice(num_classes, n, p=prior / prior.sum())``
        to the byte, after the checks ``choice`` makes on ``p`` (no NaN or
        inf, no negative entry, a sum within its tolerance of 1): its
        cumulative sum over its last entry, searched by ``random(n)`` from
        the right.
        """
        prior = np.asarray(label_prior, dtype=np.float64)
        if prior.shape != (self.spec.num_classes,):
            raise ValueError(
                f"label_prior must have shape ({self.spec.num_classes},); got {prior.shape}"
            )
        p = prior / prior.sum()
        total = p.sum()
        if not (np.isfinite(total) and (p >= 0).all()
                and abs(total - 1.0) <= _SUM_TOLERANCE):
            raise ValueError(f"label_prior {prior} does not normalise to a "
                             "distribution")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        labels = cdf.searchsorted(rng.random(n), side="right")
        return self.sample(labels, rng), labels
