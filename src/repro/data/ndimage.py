"""The four SciPy ``ndimage`` operations the corruption library uses, in numpy.

Each kernel takes what :mod:`repro.data.corruptions` passes — a float64 batch
``(n, c, h, w)``, filtered or resampled over its last two axes — and performs
the floating-point operations of SciPy 1.17's C loops in the same order, so
its output is byte-identical to ``ndimage``'s:

* :func:`gaussian_filter` — ``gaussian_filter(x, (0, 0, s, s))``;
* :func:`uniform_filter` — ``uniform_filter(x, (1, 1, k, k))``;
* :func:`rotate` — ``rotate(x, a, axes=(2, 3), reshape=False, order=1,
  mode="nearest")``, its matrix built by :func:`cosdg` / :func:`sindg` (a port
  of cephes' degree-argument cosine and sine, as SciPy's ``special`` has them);
* :func:`zoom` — ``zoom(x, (1, 1, f, f), order=1)``.

``tests/test_data_kernels.py`` pins every corruption's bytes and, where SciPy
is installed, differentiates each kernel against it; no run imports SciPy.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- cephes sindg.c

_SINCOF = (1.58962301572218447952e-10, -2.50507477628503540135e-8,
           2.75573136213856773549e-6, -1.98412698295895384658e-4,
           8.33333333332211858862e-3, -1.66666666666666307295e-1)
_COSCOF = (1.13678171382044553091e-11, -2.08758833757683644217e-9,
           2.75573155429816611547e-7, -2.48015872936186303776e-5,
           1.38888888888806666760e-3, -4.16666666666666348141e-2,
           4.99999999999999999798e-1)
_PI180 = 1.74532925199432957692e-2  # pi / 180
_LOSSTH = 1.0e14  # past this the reduction keeps no bits; cephes returns 0


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _reduce(x: float) -> tuple[float, int]:
    """``x >= 0`` degrees as ``(z, j)``: ``z`` radians from the nearest even
    octant ``j`` (0, 2, 4 or 6, counted modulo 8)."""
    y = float(np.floor(x / 45.0))
    j = int(y - np.ldexp(np.floor(np.ldexp(y, -4)), 4))  # y mod 16, overflow-safe
    if j & 1:
        j += 1
        y += 1.0
    return (x - y * 45.0) * _PI180, j & 7


def _series(z: float, sine: bool) -> float:
    zz = z * z
    if sine:
        return z + z * (zz * _polevl(zz, _SINCOF))
    return 1.0 - zz * _polevl(zz, _COSCOF)


def sindg(x: float) -> float:
    """Sine of ``x`` degrees, cephes' ``sindg``."""
    negative = x < 0
    x = -x if negative else x
    if x > _LOSSTH:
        return 0.0
    z, j = _reduce(x)
    y = _series(z, sine=j % 4 == 0)
    return -y if negative != (j > 3) else y


def cosdg(x: float) -> float:
    """Cosine of ``x`` degrees, cephes' ``cosdg``."""
    x = -x if x < 0 else x
    if x > _LOSSTH:
        return 0.0
    z, j = _reduce(x)
    y = _series(z, sine=j % 4 == 2)
    return -y if (j > 3) != (j % 4 == 2) else y


# ---------------------------------------------------------------- filters


def _reflect(lines: np.ndarray, before: int, after: int) -> np.ndarray:
    """``lines`` (the line axis first) extended by ``ndimage``'s ``reflect``
    mode — numpy's ``symmetric``, ``dcba|abcd|dcba``, periodic in ``2n``
    where an extension is longer than the line — as one contiguous ``take``."""
    n = lines.shape[0]
    i = np.arange(-before, n + after) % (2 * n)
    return lines.take(np.where(i < n, i, 2 * n - 1 - i), axis=0)


def _separable(x: np.ndarray, before: int, after: int, line_filter) -> np.ndarray:
    """``line_filter`` down every plane's ``h`` lines, then along its ``w``
    lines.  Where ``ndimage``'s C loop walks one line at a time, numpy
    sweeps the whole batch once per operation — three per tap — so each pass
    first moves the filtered axis to the front, and every tap the filter
    reads is one contiguous block."""
    if x.size == 0:
        return x.copy()
    n, c, h, w = x.shape
    planes = x.reshape(n * c, h, w)
    down = line_filter(_reflect(planes.transpose(1, 0, 2), before, after))
    across = line_filter(_reflect(down.transpose(2, 1, 0), before, after))
    return np.ascontiguousarray(across.transpose(1, 2, 0)).reshape(x.shape)


def gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of every ``(h, w)`` plane out to radius
    ``r = int(4σ + 0.5)``: ``ndimage``'s symmetric ``correlate1d``,
    ``x[i]·w[r]``, then for ``k = 0 .. r-1``, ``+= (x[i-r+k] +
    x[i+r-k])·w[k]``."""
    r = int(4.0 * float(sigma) + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    weights = (phi / phi.sum())[::-1]

    def correlate(padded):
        n = len(padded) - 2 * r
        out = padded[r:r + n] * weights[r]
        pair = np.empty_like(out)
        for k in range(r):
            np.add(padded[k:k + n], padded[2 * r - k:2 * r - k + n], out=pair)
            pair *= weights[k]
            out += pair
        return out

    return _separable(x, r, r, correlate)


def uniform_filter(x: np.ndarray, size: int) -> np.ndarray:
    """Box mean of width ``size`` over every ``(h, w)`` plane: ``ndimage``'s
    running *sum* — the first window summed left to right from 0.0, then
    ``+= x[i+size-1] - x[i-1]`` line by line — each output divided by
    ``size``."""
    if size <= 1:
        return x.copy()

    def running_mean(padded):
        n = len(padded) - size + 1
        total = np.empty((n, *padded.shape[1:]))
        total[0] = 0.0
        for k in range(size):
            total[0] += padded[k]
        np.subtract(padded[size:size + n - 1], padded[:n - 1], out=total[1:])
        for k in range(1, n):
            total[k] += total[k - 1]
        total /= size
        return total

    return _separable(x, size // 2, size - size // 2 - 1, running_mean)


# ---------------------------------------------------------------- order-1 resampling


def _support(coord: np.ndarray, length: int):
    """The two support indices of each coordinate, clamped to the line, and
    their weights ``w0 = 1 - (c - floor(c))``, ``w1 = 1 - w0``."""
    floor = np.floor(coord)
    w0 = 1.0 - (coord - floor)
    start = floor.astype(np.intp)
    last = length - 1  # np.clip's integers, without its Python-level wrapper
    return (np.minimum(np.maximum(start, 0), last),
            np.minimum(np.maximum(start + 1, 0), last), w0, 1.0 - w0)


def _interpolate(x: np.ndarray, rows, cols) -> np.ndarray:
    """``0.0 + Σ (v·wy)·wx`` over the four corners, y-major, of every plane
    of ``x`` at the ``(rows, cols)`` supports (broadcast to the output grid)."""
    n, c, h, w = x.shape
    (y0, y1, wy0, wy1), (x0, x1, wx0, wx1) = rows, cols
    flat = x.reshape(n * c, h * w)
    out = np.zeros((n * c, *np.broadcast_shapes(y0.shape, x0.shape)))
    for yi, wy in ((y0, wy0), (y1, wy1)):
        for xi, wx in ((x0, wx0), (x1, wx1)):
            corner = flat.take(yi * w + xi, axis=1)
            corner *= wy
            corner *= wx
            out += corner
    return out.reshape(n, c, *out.shape[1:])


def rotate(x: np.ndarray, angle: float) -> np.ndarray:
    """Every ``(h, w)`` plane rotated by ``angle`` degrees about its centre,
    bilinear, edges extended by their nearest pixel."""
    h, w = x.shape[2:]
    cos, sin = cosdg(angle), sindg(angle)
    matrix = np.array([[cos, sin], [-sin, cos]])
    plane = np.asarray(x.shape)[[2, 3]]
    offset = (plane - 1) / 2 - matrix @ ((plane - 1) / 2)
    oy = np.arange(h, dtype=np.float64)[:, None]
    ox = np.arange(w, dtype=np.float64)[None, :]
    cy = offset[0] + oy * matrix[0, 0] + ox * matrix[0, 1]
    cx = offset[1] + oy * matrix[1, 0] + ox * matrix[1, 1]
    return _interpolate(x, _support(cy, h), _support(cx, w))


def zoom(x: np.ndarray, factor: float) -> np.ndarray:
    """Every ``(h, w)`` plane resized to ``round(h·f) x round(w·f)``, bilinear,
    corner pixels on corner pixels; a coordinate that rounds past the last
    pixel reads the constant 0."""
    h, w = x.shape[2:]
    grids = []
    for length in (h, w):
        size = int(round(length * factor))
        step = (length - 1) / (size - 1) if size != 1 else 1.0
        grids.append(np.arange(size) * step)
    rows, cols = grids[0][:, None], grids[1][None, :]
    out = _interpolate(x, _support(rows, h), _support(cols, w))
    out[..., (rows > h - 1)[:, 0], :] = 0.0
    out[..., (cols > w - 1)[0]] = 0.0
    return out
