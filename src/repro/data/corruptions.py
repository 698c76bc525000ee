"""Corruption library: the -C benchmark families at five severities.

Mirrors the corruption taxonomy of CIFAR-10-C / Tiny-ImageNet-C (Hendrycks &
Dietterich 2019) used by the paper, plus the PyTorch-transform style shifts
(rotation, scaling, colour jitter) the paper applies to FEMNIST and
Fashion-MNIST.  Every operator maps a batch ``(n, c, h, w)`` in [0, 1] to a
corrupted batch of the same shape and range, moving ``P(X)`` while leaving
class semantics (``P(Y|X)``) intact.

Severity runs 1..5 (paper convention); parameters grow monotonically.
:func:`apply_corruption`, the library's entry point, checks it once for
every operator.  The filters and resamplers are :mod:`repro.data.ndimage`'s
numpy kernels, byte-identical to the SciPy ``ndimage`` calls they replaced.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data import ndimage

CorruptionFn = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


def _check_batch(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"corruptions expect (n, c, h, w); got shape {arr.shape}")
    return arr


def _check_severity(severity: int) -> int:
    if not 1 <= int(severity) <= 5:
        raise ValueError(f"severity must be in 1..5; got {severity}")
    return int(severity)


def _sev(values: tuple, severity: int):
    return values[severity - 1]


def identity(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """The clean regime (no corruption)."""
    return _check_batch(x).copy()


# ------------------------------------------------------------------ noise family

def gaussian_noise(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    sigma = _sev((0.08, 0.12, 0.18, 0.26, 0.38), severity)
    x = _check_batch(x)
    return np.clip(x + rng.normal(0.0, sigma, size=x.shape), 0.0, 1.0)


def shot_noise(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    rate = _sev((60.0, 25.0, 12.0, 5.0, 3.0), severity)
    x = _check_batch(x)
    return np.clip(rng.poisson(x * rate) / rate, 0.0, 1.0)


def impulse_noise(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    amount = _sev((0.03, 0.06, 0.09, 0.17, 0.27), severity)
    x = _check_batch(x).copy()
    mask = rng.random(x.shape)
    x[mask < amount / 2] = 0.0
    x[mask > 1.0 - amount / 2] = 1.0
    return x


# ------------------------------------------------------------------ blur family

def gaussian_blur(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    sigma = _sev((0.4, 0.6, 0.9, 1.2, 1.6), severity)
    x = _check_batch(x)
    return np.clip(ndimage.gaussian_filter(x, sigma), 0.0, 1.0)


def defocus_blur(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    size = _sev((2, 3, 3, 5, 5), severity)
    repeats = _sev((1, 1, 2, 1, 2), severity)
    x = _check_batch(x)
    out = x
    for _ in range(repeats):
        out = ndimage.uniform_filter(out, size)
    return np.clip(out, 0.0, 1.0)


def motion_blur(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    length = _sev((2, 3, 4, 5, 6), severity)
    x = _check_batch(x)
    out = np.zeros_like(x)
    for k in range(length):
        out += np.roll(x, k, axis=3)
    return np.clip(out / length, 0.0, 1.0)


# ------------------------------------------------------------------ weather family

def _smooth_field(shape: tuple[int, ...], rng: np.random.Generator,
                  smoothness: float) -> np.ndarray:
    """Normalized low-frequency random field in [0, 1]."""
    field = rng.normal(size=shape)
    field = ndimage.gaussian_filter(field, smoothness)
    lo = field.min(axis=(2, 3), keepdims=True)
    hi = field.max(axis=(2, 3), keepdims=True)
    return (field - lo) / np.maximum(hi - lo, 1e-9)


def fog(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Blend toward a bright low-frequency haze field and reduce contrast."""
    t = _sev((0.30, 0.40, 0.50, 0.60, 0.70), severity)
    x = _check_batch(x)
    haze = 0.6 + 0.4 * _smooth_field(x.shape, rng, smoothness=x.shape[2] / 4)
    return np.clip((1.0 - t) * x + t * haze, 0.0, 1.0)


def frost(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Overlay bright crystalline patches (thresholded smooth noise)."""
    cover = _sev((0.20, 0.30, 0.40, 0.50, 0.60), severity)
    strength = _sev((0.4, 0.5, 0.6, 0.7, 0.8), severity)
    x = _check_batch(x)
    field = _smooth_field(x.shape, rng, smoothness=1.0)
    crystals = (field > 1.0 - cover) * strength
    return np.clip(np.maximum(x, crystals) * (1.0 - 0.15 * strength) + 0.1 * strength,
                   0.0, 1.0)


def snow(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse bright speckles plus global whitening."""
    density = _sev((0.04, 0.08, 0.12, 0.18, 0.25), severity)
    whitening = _sev((0.10, 0.15, 0.20, 0.25, 0.30), severity)
    x = _check_batch(x)
    n, c, h, w = x.shape
    flakes = (rng.random((n, 1, h, w)) < density).astype(np.float64)
    flakes = np.broadcast_to(flakes, x.shape)
    out = np.maximum(x, flakes * rng.uniform(0.8, 1.0))
    return np.clip(out * (1 - whitening) + whitening, 0.0, 1.0)


def rain(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal streak overlay plus slight darkening."""
    density = _sev((0.03, 0.05, 0.08, 0.12, 0.16), severity)
    streak_len = _sev((2, 3, 3, 4, 5), severity)
    x = _check_batch(x)
    n, c, h, w = x.shape
    drops = (rng.random((n, 1, h, w)) < density).astype(np.float64)
    streaks = np.zeros_like(drops)
    for k in range(streak_len):
        streaks = np.maximum(streaks, np.roll(drops, (k, k), axis=(2, 3)))
    streaks = np.broadcast_to(streaks, x.shape)
    darkened = x * (1.0 - 0.15)
    return np.clip(np.maximum(darkened, streaks * 0.75), 0.0, 1.0)


# ------------------------------------------------------------------ digital family

def brightness(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    delta = _sev((0.10, 0.16, 0.22, 0.30, 0.40), severity)
    x = _check_batch(x)
    return np.clip(x + delta, 0.0, 1.0)


def contrast(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    factor = _sev((0.70, 0.55, 0.40, 0.30, 0.20), severity)
    x = _check_batch(x)
    mean = x.mean(axis=(2, 3), keepdims=True)
    return np.clip((x - mean) * factor + mean, 0.0, 1.0)


def pixelate(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    factor = _sev((2, 2, 3, 4, 6), severity)
    x = _check_batch(x)
    n, c, h, w = x.shape
    small_h, small_w = max(1, h // factor), max(1, w // factor)
    # Block-mean downsample, then nearest-neighbour upsample.  Row i lies in
    # block row i * small_h // h, columns alike.
    ys = np.arange(h) * small_h // h
    xs = np.arange(w) * small_w // w
    rows, row_counts = _block_pixels(ys, pad=h)
    cols, col_counts = _block_pixels(xs, pad=w)
    # Pixels first, batch last, so a gathered pixel is one contiguous (n, c)
    # slab; row h and column w read zero.
    canvas = np.zeros((h + 1, w + 1, n, c))
    canvas[:h, :w] += x.transpose(2, 3, 0, 1)  # 0.0 + x: a per-pixel loop's first add
    # pixels[k] holds every block's k-th pixel in row-major order (a zero past
    # a smaller block's end), so adding them in turn sums each block in the
    # order a per-pixel loop does.
    pixels = canvas[rows.T[:, None, :, None], cols.T[None, :, None, :]].reshape(
        rows.shape[1] * cols.shape[1], small_h, small_w, n, c)
    down = pixels[0].copy()
    for pixel in pixels[1:]:
        down += pixel
    down /= np.outer(row_counts, col_counts)[:, :, None, None]
    up = np.clip(down[ys][:, xs], 0.0, 1.0)
    return np.ascontiguousarray(up.transpose(2, 3, 0, 1))


def _block_pixels(blocks: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """``(index, count)`` per block of a non-decreasing block-id axis: the
    block's positions along the axis, right-padded with ``pad`` to the
    longest block's length, and how many there are."""
    _, starts, counts = np.unique(blocks, return_index=True, return_counts=True)
    offsets = np.arange(counts.max())
    return np.where(offsets < counts[:, None], starts[:, None] + offsets, pad), counts


# ------------------------------------------------------------------ transform family
# (the PyTorch-transform analogues the paper uses on FEMNIST / Fashion-MNIST)

def rotation(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    angle = _sev((8.0, 15.0, 22.0, 30.0, 40.0), severity)
    x = _check_batch(x)
    jitter = rng.uniform(-3.0, 3.0)
    return np.clip(ndimage.rotate(x, angle + jitter), 0.0, 1.0)


def translate(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    shift = _sev((1, 2, 2, 3, 4), severity)
    x = _check_batch(x)
    dy = int(rng.integers(-shift, shift + 1))
    dx = int(rng.integers(-shift, shift + 1))
    if dy == 0 and dx == 0:
        dy = shift
    return np.roll(x, (dy, dx), axis=(2, 3))


def scale_jitter(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    factor = _sev((1.15, 1.25, 1.35, 1.50, 1.70), severity)
    x = _check_batch(x)
    n, c, h, w = x.shape
    zoomed = ndimage.zoom(x, factor)
    zh, zw = zoomed.shape[2], zoomed.shape[3]
    top, left = (zh - h) // 2, (zw - w) // 2
    return np.clip(zoomed[:, :, top:top + h, left:left + w], 0.0, 1.0)


def color_jitter(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    spread = _sev((0.10, 0.18, 0.26, 0.35, 0.45), severity)
    x = _check_batch(x)
    c = x.shape[1]
    gains = rng.uniform(1.0 - spread, 1.0 + spread, size=(1, c, 1, 1))
    offset = rng.uniform(-spread / 2, spread / 2)
    return np.clip(x * gains + offset, 0.0, 1.0)


def invert_polarity(x: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Partial intensity inversion — an aggressive covariate regime."""
    alpha = _sev((0.3, 0.45, 0.6, 0.8, 1.0), severity)
    x = _check_batch(x)
    return np.clip((1.0 - alpha) * x + alpha * (1.0 - x), 0.0, 1.0)


CORRUPTIONS: dict[str, CorruptionFn] = {
    "identity": identity,
    "gaussian_noise": gaussian_noise,
    "shot_noise": shot_noise,
    "impulse_noise": impulse_noise,
    "gaussian_blur": gaussian_blur,
    "defocus_blur": defocus_blur,
    "motion_blur": motion_blur,
    "fog": fog,
    "frost": frost,
    "snow": snow,
    "rain": rain,
    "brightness": brightness,
    "contrast": contrast,
    "pixelate": pixelate,
    "rotation": rotation,
    "translate": translate,
    "scale_jitter": scale_jitter,
    "color_jitter": color_jitter,
    "invert_polarity": invert_polarity,
}

CORRUPTION_GROUPS: dict[str, tuple[str, ...]] = {
    "weather": ("fog", "rain", "snow", "frost"),
    "noise": ("gaussian_noise", "shot_noise", "impulse_noise"),
    "blur": ("gaussian_blur", "defocus_blur", "motion_blur"),
    "digital": ("brightness", "contrast", "pixelate"),
    "transform": ("rotation", "translate", "scale_jitter", "color_jitter"),
}


def apply_corruption(x: np.ndarray, name: str, severity: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Apply a named corruption at a given severity to a batch."""
    if name not in CORRUPTIONS:
        raise KeyError(f"unknown corruption '{name}'; available: {sorted(CORRUPTIONS)}")
    return CORRUPTIONS[name](x, _check_severity(severity), rng)
