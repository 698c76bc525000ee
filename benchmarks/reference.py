"""What the probes and the differential tests share: one timer, one "parent".

``best_us`` is the probes' only timing helper.  The ``ref_*`` functions are the
bodies a perf PR replaced, kept verbatim — the detection plane's previous MMD
code (three distance matrices and three ``exp`` per pair, a Python loop per
shared class, a median heuristic gathered through ``triu_indices``), the conv
kernels' previous ``im2col`` / ``col2im`` / max-pool and per-tensor training
step, k-means as one Lloyd loop per (k, restart) problem, the data plane's
previous sampler (one class at a time, one ``np.roll`` per image) and eager
window assembly, ``pixelate``'s per-pixel loop, and the six
corruption operators as they were over ``scipy.ndimage`` (``SCIPY_CORRUPTIONS``;
scipy is a test-only dependency, so ``ndimage`` / ``special`` are ``None``
without it).  ``tests/test_{detection,data}_differential.py``,
``tests/test_data_kernels.py``, ``tests/test_nn_kernels_differential.py`` and
``tests/test_clustering.py`` pin the live code against them and
``benchmarks/{detection,data}_plane.py`` check against the same copy.
"""

from __future__ import annotations

import time

import numpy as np

from repro.clustering.davies_bouldin import davies_bouldin_index
from repro.clustering.kmeans import KMeansResult
from repro.data.corruptions import _check_batch, _sev
from repro.data.federated import PartyWindowData
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD
from repro.utils.validation import check_2d

try:  # a test-only reference: a run never imports scipy
    from scipy import ndimage, special
except ImportError:
    ndimage = special = None


def best_us(fn, *args, calls: int, repeats: int) -> float:
    """Microseconds per ``fn(*args)``: best of ``repeats`` runs of ``calls``."""
    fn(*args)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


# ---------------------------------------------------------------- detection plane


def _ref_pairwise_sq_dists(x, y):
    """Squared Euclidean distance matrix between rows of x and rows of y."""
    x_norm = (x ** 2).sum(axis=1)[:, None]
    y_norm = (y ** 2).sum(axis=1)[None, :]
    d2 = x_norm + y_norm - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def ref_median_heuristic_gamma(x, y=None):
    x = check_2d(x, "x")
    pooled = x if y is None else np.vstack([x, check_2d(y, "y")])
    d2 = _ref_pairwise_sq_dists(pooled, pooled)
    upper = d2[np.triu_indices_from(d2, k=1)]
    if upper.size == 0:
        return 1.0
    med2 = float(np.median(upper))
    if med2 <= 0:
        return 1.0
    return 1.0 / (2.0 * med2)


def ref_rbf_kernel(x, y, gamma):
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return np.exp(-gamma * _ref_pairwise_sq_dists(check_2d(x, "x"), check_2d(y, "y")))


def ref_mmd2_biased(x, y, gamma=None):
    x, y = check_2d(x, "x"), check_2d(y, "y")
    if gamma is None:
        gamma = ref_median_heuristic_gamma(x, y)
    kxx = ref_rbf_kernel(x, x, gamma).mean()
    kyy = ref_rbf_kernel(y, y, gamma).mean()
    kxy = ref_rbf_kernel(x, y, gamma).mean()
    return float(max(kxx + kyy - 2.0 * kxy, 0.0))


def ref_mmd(x, y, gamma=None):
    return float(np.sqrt(ref_mmd2_biased(x, y, gamma)))


def ref_class_conditional_mmd(x, x_labels, y, y_labels, gamma=None,
                              min_per_class=2):
    x, y = check_2d(x, "x"), check_2d(y, "y")
    x_labels = np.asarray(x_labels)
    y_labels = np.asarray(y_labels)
    if x_labels.shape != (x.shape[0],) or y_labels.shape != (y.shape[0],):
        raise ValueError("labels must align with embedding rows")
    if gamma is None:
        gamma = ref_median_heuristic_gamma(x, y)
    total, weight = 0.0, 0
    for c in np.intersect1d(np.unique(x_labels), np.unique(y_labels)):
        a = x[x_labels == c]
        b = y[y_labels == c]
        if a.shape[0] >= min_per_class and b.shape[0] >= min_per_class:
            n = min(a.shape[0], b.shape[0])
            total += ref_mmd(a, b, gamma) * n
            weight += n
    if weight == 0:
        return ref_mmd(x, y, gamma)
    return float(total / weight)


def ref_mmd_to_many(x, ys, gamma=None):
    x = check_2d(x, "x")
    ys = [check_2d(y, "y") for y in ys]
    if not ys:
        return np.zeros(0)
    if gamma is None:
        return np.array([ref_mmd(x, y, None) for y in ys])
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    kxx_mean = np.exp(-gamma * _ref_pairwise_sq_dists(x, x)).mean()
    stacked = np.vstack(ys)
    kxy = np.exp(-gamma * _ref_pairwise_sq_dists(x, stacked))
    out = np.empty(len(ys))
    offset = 0
    for i, y in enumerate(ys):
        kyy_mean = np.exp(-gamma * _ref_pairwise_sq_dists(y, y)).mean()
        kxy_mean = kxy[:, offset:offset + y.shape[0]].mean()
        offset += y.shape[0]
        out[i] = np.sqrt(max(kxx_mean + kyy_mean - 2.0 * kxy_mean, 0.0))
    return out


def ref_class_conditional_mmd_to_many(x, x_labels, ys, ys_labels, gamma=None,
                                      min_per_class=2):
    x = check_2d(x, "x")
    x_labels = np.asarray(x_labels)
    if x_labels.shape != (x.shape[0],):
        raise ValueError("labels must align with embedding rows")
    ys = [check_2d(y, "y") for y in ys]
    ys_labels = [np.asarray(yl) for yl in ys_labels]
    if len(ys) != len(ys_labels):
        raise ValueError("ys and ys_labels must align")
    for y, yl in zip(ys, ys_labels):
        if yl.shape != (y.shape[0],):
            raise ValueError("labels must align with embedding rows")
    if not ys:
        return np.zeros(0)
    if gamma is None:
        return np.array([
            ref_class_conditional_mmd(x, x_labels, y, yl, None, min_per_class)
            for y, yl in zip(ys, ys_labels)
        ])
    totals = np.zeros(len(ys))
    weights = np.zeros(len(ys), dtype=int)
    for c in np.unique(x_labels):
        a = x[x_labels == c]
        if a.shape[0] < min_per_class:
            continue
        members = [(i, ys[i][ys_labels[i] == c]) for i in range(len(ys))]
        members = [(i, b) for i, b in members if b.shape[0] >= min_per_class]
        if not members:
            continue
        vals = ref_mmd_to_many(a, [b for _i, b in members], gamma)
        for (i, b), val in zip(members, vals):
            n = min(a.shape[0], b.shape[0])
            totals[i] += val * n
            weights[i] += n
    out = np.empty(len(ys))
    conditioned = weights > 0
    out[conditioned] = totals[conditioned] / weights[conditioned]
    fallback = [i for i in range(len(ys)) if not conditioned[i]]
    if fallback:
        out[fallback] = ref_mmd_to_many(x, [ys[i] for i in fallback], gamma)
    return out


# ---------------------------------------------------------------- nn


def ref_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride,
                 strides[2], strides[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), out_h, out_w


def ref_col2im(cols, x_shape, kh, kw, stride, pad, out_h, out_w):
    n, c, h, w = x_shape
    x_padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            x_padded[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += (
                cols6[:, :, :, :, i, j]
            )
    if pad:
        return x_padded[:, :, pad:-pad, pad:-pad]
    return x_padded


def ref_pool_forward(x, p):
    """Returns ``(out, first)``; ``first`` is what the old layer cached."""
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // p, p, w // p, p)
    out = xr.max(axis=(3, 5))
    mask = (xr == out[:, :, :, None, :, None])
    windows = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // p, w // p, p * p)
    cum = np.cumsum(windows, axis=-1)
    first = (cum == 1) & windows
    return out, first


def ref_pool_backward(first, x_shape, p, grad_out):
    n, c, h, w = x_shape
    grad = first * grad_out[:, :, :, :, None]
    grad = grad.reshape(n, c, h // p, w // p, p, p).transpose(0, 1, 2, 4, 3, 5)
    return grad.reshape(n, c, h, w)


def ref_train_local(model, x, y, config, rng, global_params=None):
    """The previous loop: full backward, per-tensor prox term and SGD step."""
    x = np.asarray(x, dtype=model.dtype)
    n = x.shape[0]
    optimizer = SGD(config.lr, momentum=config.momentum, weight_decay=config.weight_decay)
    losses = []
    cap = config.max_batches_per_epoch
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        for batch, start in enumerate(range(0, n, config.batch_size)):
            if cap is not None and batch >= cap:
                break
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            model.zero_grads()
            logits = model.forward(xb, training=True)
            loss, grad = softmax_cross_entropy(logits, yb)
            model.backward(grad)
            grads = model.grads
            if config.prox_mu > 0 and global_params is not None:
                params = model.params
                for g, p, gp in zip(grads, params, global_params):
                    g += config.prox_mu * (p - gp)
            optimizer.step(model.params, grads)
            losses.append(loss)
    return losses


# ---------------------------------------------------------------- clustering


def ref_kmeans_pp_init(x, k, rng):
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest_d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_d2.sum()
        if total <= 1e-18:
            # All remaining points coincide with a centroid; pick uniformly.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_d2 / total))
        centroids[j] = x[idx]
        d2 = ((x - centroids[j]) ** 2).sum(axis=1)
        closest_d2 = np.minimum(closest_d2, d2)
    return centroids


def ref_kmeans(x, k, rng, max_iter=100, tol=1e-6, n_init=3):
    x = check_2d(x, "x")
    n = x.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds number of samples {n}")
    if n_init <= 0:
        raise ValueError("n_init must be positive")

    best = None
    for _restart in range(n_init):
        centroids = ref_kmeans_pp_init(x, k, rng)
        labels = np.zeros(n, dtype=int)
        iterations = 0
        for iteration in range(1, max_iter + 1):
            iterations = iteration
            d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            new_centroids = centroids.copy()
            for j in range(k):
                members = x[labels == j]
                if members.shape[0] == 0:
                    # Re-seed an empty cluster at the worst-fit point.
                    worst = int(d2[np.arange(n), labels].argmax())
                    new_centroids[j] = x[worst]
                    labels[worst] = j
                else:
                    new_centroids[j] = members.mean(axis=0)
            shift = float(np.abs(new_centroids - centroids).max())
            centroids = new_centroids
            if shift < tol:
                break
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        # Guarantee exactly k non-empty clusters even on degenerate inputs
        # (duplicate points tie on distance and argmin collapses clusters).
        for j in range(k):
            if not np.any(labels == j):
                donor_clusters = np.flatnonzero(np.bincount(labels, minlength=k) > 1)
                candidates = np.flatnonzero(np.isin(labels, donor_clusters))
                worst = candidates[d2[candidates, labels[candidates]].argmax()]
                labels[worst] = j
                centroids[j] = x[worst]
        inertia = float(d2[np.arange(n), labels].sum())
        result = KMeansResult(labels=labels, centroids=centroids,
                              inertia=inertia, iterations=iterations)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def ref_select_num_clusters(x, rng, k_max=6, elbow_tolerance=0.10):
    x = check_2d(x, "x")
    n = x.shape[0]
    k_max = max(1, min(k_max, n))
    results = {}
    scores = {}

    spread = float(np.linalg.norm(x - x.mean(axis=0), axis=1).mean())
    if n == 1 or spread < 1e-9:
        result = ref_kmeans(x, 1, rng)
        return 1, result, {1: 0.0}

    for k in range(1, k_max + 1):
        result = ref_kmeans(x, k, rng)
        results[k] = result
        if k == 1:
            # Normalized scatter of the single cluster, so k=1 competes on the
            # same scale as DB indices of k >= 2.
            scores[k] = 1.0
        else:
            scores[k] = davies_bouldin_index(x, result.labels)

    best_k = 1
    best_score = scores[1]
    for k in range(2, k_max + 1):
        improvement = (best_score - scores[k]) / max(best_score, 1e-12)
        if improvement > elbow_tolerance:
            best_k = k
            best_score = scores[k]
    return best_k, results[best_k], scores


# ---------------------------------------------------------------- data plane


def ref_sample_class(self, class_id, n, rng):
    if not 0 <= class_id < self.spec.num_classes:
        raise ValueError(f"class_id {class_id} out of range")
    if n < 0:
        raise ValueError("n must be non-negative")
    spec = self.spec
    base = np.repeat(self.templates[class_id][None], n, axis=0)
    if spec.max_translation > 0 and n > 0:
        shifts = rng.integers(-spec.max_translation, spec.max_translation + 1,
                              size=(n, 2))
        for i, (dy, dx) in enumerate(shifts):
            if dy or dx:
                base[i] = np.roll(base[i], (int(dy), int(dx)), axis=(1, 2))
    noise = rng.normal(0.0, spec.noise_scale, size=base.shape)
    brightness = rng.normal(0.0, spec.brightness_jitter, size=(n, 1, 1, 1))
    return np.clip(base + noise + brightness, 0.0, 1.0)


def ref_sample(self, labels, rng):
    labels = np.asarray(labels)
    out = np.empty((labels.size, *self.spec.input_shape))
    for class_id in np.unique(labels):
        idx = np.nonzero(labels == class_id)[0]
        out[idx] = ref_sample_class(self, int(class_id), idx.size, rng)
    return out


def ref_assemble_window(self, party, shard, window):
    regime = self.schedule.regime_of(window, shard)
    prior = self.schedule.prior_of(window, shard)
    n_train, n_test = self.spec.train_per_window, self.spec.test_per_window

    carry = 0
    prev_regime = self.schedule.regime_of(window - 1, shard) if window > 0 else None
    regime_changed = (prev_regime is not None
                      and prev_regime.regime_id != regime.regime_id)
    if self.sliding_overlap > 0 and regime_changed:
        carry = int(round(self.sliding_overlap * n_train))

    x_new, y_new = self._generate_split(
        party, window, n_train - carry, "train", regime, prior
    )
    if carry and prev_regime is not None:
        prev_prior = self.schedule.prior_of(window - 1, shard)
        x_old, y_old = self._generate_split(
            party, window, carry, "train-overlap", prev_regime, prev_prior
        )
        x_train = np.concatenate([x_old, x_new])
        y_train = np.concatenate([y_old, y_new])
    else:
        x_train, y_train = x_new, y_new

    x_test, y_test = self._generate_split(party, window, n_test, "test", regime, prior)
    return PartyWindowData(
        party_id=party,
        window=window,
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        regime=regime,
        label_prior=prior.copy(),
    )


# ---------------------------------------------------------------- corruptions


def ref_gaussian_blur(x, severity, rng):
    sigma = _sev((0.4, 0.6, 0.9, 1.2, 1.6), severity)
    x = _check_batch(x)
    return np.clip(ndimage.gaussian_filter(x, sigma=(0, 0, sigma, sigma)), 0.0, 1.0)


def ref_defocus_blur(x, severity, rng):
    size = _sev((2, 3, 3, 5, 5), severity)
    repeats = _sev((1, 1, 2, 1, 2), severity)
    x = _check_batch(x)
    out = x
    for _ in range(repeats):
        out = ndimage.uniform_filter(out, size=(1, 1, size, size))
    return np.clip(out, 0.0, 1.0)


def _ref_smooth_field(shape, rng, smoothness):
    """Normalized low-frequency random field in [0, 1]."""
    field = rng.normal(size=shape)
    field = ndimage.gaussian_filter(field, sigma=(0, 0, smoothness, smoothness))
    lo = field.min(axis=(2, 3), keepdims=True)
    hi = field.max(axis=(2, 3), keepdims=True)
    return (field - lo) / np.maximum(hi - lo, 1e-9)


def ref_fog(x, severity, rng):
    """Blend toward a bright low-frequency haze field and reduce contrast."""
    t = _sev((0.30, 0.40, 0.50, 0.60, 0.70), severity)
    x = _check_batch(x)
    haze = 0.6 + 0.4 * _ref_smooth_field(x.shape, rng, smoothness=x.shape[2] / 4)
    return np.clip((1.0 - t) * x + t * haze, 0.0, 1.0)


def ref_frost(x, severity, rng):
    """Overlay bright crystalline patches (thresholded smooth noise)."""
    cover = _sev((0.20, 0.30, 0.40, 0.50, 0.60), severity)
    strength = _sev((0.4, 0.5, 0.6, 0.7, 0.8), severity)
    x = _check_batch(x)
    field = _ref_smooth_field(x.shape, rng, smoothness=1.0)
    crystals = (field > 1.0 - cover) * strength
    return np.clip(np.maximum(x, crystals) * (1.0 - 0.15 * strength) + 0.1 * strength,
                   0.0, 1.0)


def ref_rotation(x, severity, rng):
    angle = _sev((8.0, 15.0, 22.0, 30.0, 40.0), severity)
    x = _check_batch(x)
    jitter = rng.uniform(-3.0, 3.0)
    return np.clip(
        ndimage.rotate(x, angle + jitter, axes=(2, 3), reshape=False, order=1,
                       mode="nearest"),
        0.0, 1.0,
    )


def ref_scale_jitter(x, severity, rng):
    factor = _sev((1.15, 1.25, 1.35, 1.50, 1.70), severity)
    x = _check_batch(x)
    n, c, h, w = x.shape
    zoomed = ndimage.zoom(x, (1, 1, factor, factor), order=1)
    zh, zw = zoomed.shape[2], zoomed.shape[3]
    top, left = (zh - h) // 2, (zw - w) // 2
    return np.clip(zoomed[:, :, top:top + h, left:left + w], 0.0, 1.0)


def ref_pixelate(x, severity, rng):
    factor = _sev((2, 2, 3, 4, 6), severity)
    x = _check_batch(x)
    n, c, h, w = x.shape
    small_h, small_w = max(1, h // factor), max(1, w // factor)
    # Block-mean downsample, then nearest-neighbour upsample.
    ys = (np.arange(h) * small_h // h).clip(0, small_h - 1)
    xs = (np.arange(w) * small_w // w).clip(0, small_w - 1)
    down = np.zeros((n, c, small_h, small_w))
    counts = np.zeros((small_h, small_w))
    for i in range(h):
        for j in range(w):
            down[:, :, ys[i], xs[j]] += x[:, :, i, j]
            counts[ys[i], xs[j]] += 1
    down /= counts
    return np.clip(down[:, :, ys][:, :, :, xs], 0.0, 1.0)


SCIPY_CORRUPTIONS = {
    "gaussian_blur": ref_gaussian_blur,
    "defocus_blur": ref_defocus_blur,
    "fog": ref_fog,
    "frost": ref_frost,
    "rotation": ref_rotation,
    "scale_jitter": ref_scale_jitter,
}
