"""What the probes and the differential tests share: one timer, one "parent".

``best_us`` is the only timing helper of ``benchmarks/probe.py``.  The
``ref_*`` functions are the bodies a perf PR replaced, kept verbatim — the
detection plane's previous MMD code (three distance matrices and three
``exp`` per pair, a Python loop per shared class and, for a batch of entries
(reports, the calibration null's draws, a cluster against its memories), per
entry, a median heuristic gathered
through ``triu_indices``, and one vector ``jsd``), the conv kernels' previous
``im2col`` / ``col2im`` / max-pool (as a reduction, and as the chain over
strided window views that window-major pooling replaced), a stacked
``Conv2d`` forward as one GEMM per replica, per-tensor
training step and softmax cross-entropy (fresh arrays throughout, the
gradient a copy of the probabilities; the step, the central-difference
check's loss and its analytic gradients all call it), k-means as
one Lloyd loop per (k, restart) problem and Davies–Bouldin as one loop per
labelling, the data plane's previous samplers (one class at a time, one
``np.roll`` per image; and ``rng.choice`` plus per-class ``integers`` /
``normal`` draws), a PCG64 state that emits a chosen word, eager window
assembly, ``pixelate``'s per-pixel
loop, and the six corruption operators as they were over ``scipy.ndimage``
(``SCIPY_CORRUPTIONS``; scipy is a test-only dependency, so ``ndimage`` /
``special`` are ``None`` without it), FedAvg and staleness-weighted
FedAvg as their own stack-and-matvec over flat vectors, and the privacy
plane's mask derivation restated from its definition (a keyed BLAKE2b word
per stream, a restated PCG64 per word), a member's net mask (its personal
stream) and its one-word Python-int Shamir code (``ref_split_secrets``
shares a bundle on one blinding draw, as a session does).
``tests/test_{detection,data,privacy}_differential.py``,
``tests/test_differential_aggregation.py``,
``tests/test_data_kernels.py``, ``tests/test_nn_kernels_differential.py`` and
``tests/test_clustering.py`` pin the live code against them, at the pinned
plans' shapes among others; ``benchmarks/probe.py`` only times against them.
``max_grad_error`` is the central-difference check every layer's and model's
backward pass is tested against (``tests/test_nn_{layers,models}.py``).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.clustering.kmeans import KMeansResult
from repro.data.corruptions import _check_batch, _sev
from repro.data.federated import PartyWindowData
from repro.federation.aggregation import staleness_decay
from repro.nn.losses import check_labels
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.privacy.secure_aggregation import _uint_dtype
from repro.privacy.shamir import PRIME
from repro.utils.params import resolve_dtype
from repro.utils.validation import check_2d, check_probability_vector

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


def ref_class_conditional_mmd(x, x_labels, y, y_labels, gamma=None):
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
        if a.shape[0] >= 2 and b.shape[0] >= 2:
            n = min(a.shape[0], b.shape[0])
            total += ref_mmd(a, b, gamma) * n
            weight += n
    if weight == 0:
        return ref_mmd(x, y, gamma)
    return float(total / weight)


def ref_class_conditional_mmd_batch(xs, xs_labels, ys, ys_labels, gamma=None,
                                    ids=None, rows=None):
    """One ``ref_class_conditional_mmd`` per entry (with ``rows``, of the rows
    each entry's index arrays pick); ``ids`` only name the live code's errors."""
    if rows is not None:
        rows = check_2d(rows, "rows")
        xs, ys = [rows[i] for i in xs], [rows[j] for j in ys]
    return np.array([
        ref_class_conditional_mmd(x, xl, y, yl, gamma)
        for x, xl, y, yl in zip(xs, xs_labels, ys, ys_labels, strict=True)
    ])


def ref_jsd(p, q):
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)
    value = 0.0
    for dist in (p, q):
        support = dist > 0
        value += 0.5 * float(
            np.sum(dist[support] * np.log(dist[support] / (m[support] + 1e-12)))
        )
    return float(np.clip(value, 0.0, np.log(2.0)))


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


def ref_conv_forward(layer, x):
    """A stacked ``Conv2d`` forward of ``(r, n, c, h, w)`` images:
    ``ref_im2col``, then one GEMM and the bias per replica."""
    k, s, pad = layer.kernel_size, layer.stride, layer.padding
    out = []
    for images, weight, bias in zip(x, *layer.params):
        cols, out_h, out_w = ref_im2col(images, k, k, s, pad)
        out.append((cols @ weight.reshape(len(weight), -1).T + bias).reshape(
            len(images), out_h, out_w, -1).transpose(0, 3, 1, 2))
    return np.stack(out)


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


def ref_pool_views(x, p):
    """The strided-view pooling forward: ``(out, first)``, ``first`` one mask
    per within-window position.  ``np.maximum``'s order decides which of a
    tied ``-0.0`` / ``+0.0`` a window keeps, so this, not ``ref_pool_forward``'s
    reduction, pins the output's bytes."""
    views = [x[..., i::p, j::p] for i in range(p) for j in range(p)]
    out = views[0]
    for view in views[1:]:
        out = np.maximum(out, view)
    taken = views[0] == out
    first = [taken]
    for view in views[1:]:
        hit = view == out
        first.append(hit > taken)
        taken = taken | hit
    return out, first


def ref_softmax_probs(logits):
    """Row-wise softmax of (..., n, k) logits: three fresh arrays."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_softmax_cross_entropy(logits, labels, *, labels_checked=False):
    """The previous loss: a two-array fancy index per pick, ``log`` and the
    gradient in fresh arrays (``probs.copy()``).  ``(loss, grad)`` as the
    live ``softmax_cross_entropy`` returns them."""
    logits = np.asarray(logits)
    in_dtype = logits.dtype if logits.dtype.kind == "f" else np.dtype(np.float64)
    logits = logits.astype(np.float64, copy=False)
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise ValueError(f"logits must be at least 2-D; got {logits.shape}")
    n, k = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise ValueError(
            f"labels must have shape {logits.shape[:-1]}; got {labels.shape}")
    if not labels_checked:
        check_labels(labels, k)
    probs = ref_softmax_probs(logits)
    eps = 1e-12
    # One (replica, sample) row per label; probs is fresh and contiguous, so
    # the reshapes are views.
    picked = (np.arange(labels.size), labels.reshape(-1))
    true_probs = probs.reshape(-1, k)[picked].reshape(labels.shape)
    # The mean as np.mean forms it (one reduction, one division by n),
    # without its Python-level overhead.
    loss = -np.log(true_probs + eps).sum(axis=-1) / n
    grad = probs.copy()
    grad.reshape(-1, k)[picked] -= 1.0
    grad /= n
    # The loss is computed in float64 for stability, but the gradient enters
    # backprop and must match the model's activation precision.
    return (float(loss) if loss.ndim == 0 else loss), grad.astype(in_dtype, copy=False)


def layer_params(model):
    """The layers' parameter arrays, in order (views of the flat vector)."""
    return [p for layer in model.layers for p in layer.params]


def layer_grads(model):
    """The layers' gradient arrays, in order (views of the flat gradient)."""
    return [g for layer in model.layers for g in layer.grads]


def ref_train_local(model, x, y, config, rng, global_params=None):
    """The previous loop: full backward, per-tensor prox term and SGD step.

    ``global_params`` is the flat anchor vector; the prox term reads it one
    tensor-shaped slice at a time.
    """
    x = np.asarray(x, dtype=model.dtype)
    params = layer_params(model)
    if global_params is not None:
        ends = np.cumsum([p.size for p in params])
        anchors = [global_params[end - p.size:end].reshape(p.shape)
                   for p, end in zip(params, ends)]
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
            model.flat_grads.fill(0.0)
            logits = model.forward(xb, training=True)
            loss, grad = ref_softmax_cross_entropy(logits, yb)
            model.backward(grad)
            grads = layer_grads(model)
            if config.prox_mu > 0 and global_params is not None:
                for g, p, gp in zip(grads, params, anchors):
                    g += config.prox_mu * (p - gp)
            optimizer.step(params, grads)
            losses.append(loss)
    return losses


def _loss_of(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    logits = model.forward(x, training=False)
    loss, _ = ref_softmax_cross_entropy(logits, y)
    return loss


def numerical_gradients(model: Sequential, x: np.ndarray, y: np.ndarray,
                        eps: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of mean CE loss w.r.t. every parameter."""
    grads: list[np.ndarray] = []
    for param in layer_params(model):
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            loss_plus = _loss_of(model, x, y)
            param[idx] = orig - eps
            loss_minus = _loss_of(model, x, y)
            param[idx] = orig
            grad[idx] = (loss_plus - loss_minus) / (2 * eps)
            it.iternext()
        grads.append(grad)
    return grads


def analytic_gradients(model: Sequential, x: np.ndarray,
                       y: np.ndarray) -> list[np.ndarray]:
    """Backprop gradients of mean CE loss (training-mode forward).

    The gradient buffer starts as NaN, so a gradient ``backward`` leaves
    unwritten fails the check it feeds."""
    model.flat_grads.fill(np.nan)
    logits = model.forward(x, training=True)
    _, grad = ref_softmax_cross_entropy(logits, y)
    model.backward(grad)
    return [g.copy() for g in layer_grads(model)]


def max_grad_error(model: Sequential, x: np.ndarray, y: np.ndarray,
                   eps: float = 1e-5) -> float:
    """Max relative error between analytic and numerical gradients."""
    analytic = analytic_gradients(model, x, y)
    numeric = numerical_gradients(model, x, y, eps=eps)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


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


def ref_davies_bouldin_index(x, labels):
    x = check_2d(x, "x")
    labels = np.asarray(labels)
    if labels.shape != (x.shape[0],):
        raise ValueError("labels must align with rows of x")
    clusters = np.unique(labels)
    k = clusters.size
    if k < 2:
        return 0.0

    centroids = np.stack([x[labels == c].mean(axis=0) for c in clusters])
    scatters = np.array([
        float(np.linalg.norm(x[labels == c] - centroids[i], axis=1).mean())
        for i, c in enumerate(clusters)
    ])
    separations = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)

    index = 0.0
    for i in range(k):
        ratios = [
            (scatters[i] + scatters[j]) / max(separations[i, j], 1e-12)
            for j in range(k) if j != i
        ]
        index += max(ratios)
    return float(index / k)


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
            scores[k] = ref_davies_bouldin_index(x, result.labels)

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


def ref_sample_dataset(self, label_prior, n, rng):
    """The previous ``sample_dataset``: ``rng.choice`` for the labels, then
    the previous ``sample`` (per class ``integers``, ``standard_normal`` and
    ``normal``; base images read from the pre-rolled translations)."""
    prior = np.asarray(label_prior, dtype=np.float64)
    if prior.shape != (self.spec.num_classes,):
        raise ValueError(
            f"label_prior must have shape ({self.spec.num_classes},); got {prior.shape}"
        )
    labels = rng.choice(self.spec.num_classes, size=n, p=prior / prior.sum())
    spec = self.spec
    t = spec.max_translation
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    edges = [0, *cuts, labels.size] if labels.size else []  # one run per class
    shifts = np.zeros((labels.size, 2), dtype=np.int64)
    noise = np.empty((labels.size, *spec.input_shape))
    brightness = np.empty((labels.size, 1, 1, 1))
    for start, stop in zip(edges, edges[1:]):
        if t > 0:
            shifts[start:stop] = rng.integers(-t, t + 1, size=(stop - start, 2))
        rng.standard_normal(out=noise[start:stop])
        brightness[start:stop] = rng.normal(0.0, spec.brightness_jitter,
                                            size=(stop - start, 1, 1, 1))
    noise *= spec.noise_scale
    noise += self._translated[shifts[:, 0] + t, shifts[:, 1] + t, ordered]
    noise += brightness
    out = np.empty_like(noise)
    out[order] = np.clip(noise, 0.0, 1.0, out=noise)
    return out, labels


def pcg64_emitting(word, seed=0):
    """A PCG64 ``Generator`` whose next 64-bit word is ``word``, set through
    the public ``state`` setter.

    PCG64 steps its 128-bit LCG, then outputs ``rotr64(high ^ low, high >>
    58)`` of the new state.  A state whose top six bits are zero rotates by
    nothing, so ``low = high ^ word`` outputs ``word``; ``advance(-1)``
    steps back one so the next draw lands there."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    high = state["state"]["state"] >> 70  # any 58-bit value
    state["state"]["state"] = (high << 64) | (high ^ word)
    rng.bit_generator.state = state
    rng.bit_generator.advance(-1)
    return rng


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


# ---------------------------------------------------------------- aggregation


def _ref_weighted_mean(vectors, weights, names):
    """Normalised ``w @ M`` over the stacked flat vectors.

    A vector whose shape differs from the first one's raises a
    ``ValueError`` naming its holder and both shapes.
    """
    for vector, name in zip(vectors, names):
        if vector.shape != vectors[0].shape or vector.ndim != 1:
            raise ValueError(
                f"parameter vector of {name} does not align: expected "
                f"{vectors[0].shape}, got {vector.shape}")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    matrix = np.stack(vectors)
    return (np.asarray(weights, dtype=matrix.dtype) / total) @ matrix


def ref_fedavg(updates):
    """Sample-count-weighted parameter average (McMahan et al., 2017).

    The single aggregation rule both FedAvg and FedProx use server-side
    (FedProx differs only in the local objective).  Updates whose parameter
    vectors disagree in size raise a ``ValueError`` naming the offending
    party and both shapes.
    """
    if not updates:
        raise ValueError("fedavg requires at least one update")
    usable = [u for u in updates if u.num_samples > 0]
    if not usable:
        raise ValueError("all updates carry zero samples")
    return _ref_weighted_mean(
        [u.params for u in usable],
        [float(u.num_samples) for u in usable],
        [f"party {u.party_id}" for u in usable],
    )


def ref_staleness_weighted_fedavg(updates, staleness, policy="constant",
                                  alpha=0.5, gamma=0.5):
    """FedAvg with each update's weight decayed by its age in rounds."""
    if len(updates) != len(staleness):
        raise ValueError("updates and staleness must have equal length")
    keep = [(u, s) for u, s in zip(updates, staleness) if u.num_samples > 0]
    if not keep:
        raise ValueError("all updates carry zero samples")
    decay = staleness_decay([s for _, s in keep], policy, alpha, gamma)
    weights = [float(u.num_samples) * float(d) for (u, _), d in zip(keep, decay)]
    return _ref_weighted_mean(
        [u.params for u, _ in keep], weights,
        [f"party {u.party_id}" for u, _ in keep],
    )


# ---------------------------------------------------------------- privacy plane


def ref_stream_word(shared_seed, context, key):
    root = (shared_seed % 2 ** 64).to_bytes(8, "little")
    digest = hashlib.blake2b(repr((tuple(context), key)).encode(),
                             digest_size=16, key=root).digest()
    return int.from_bytes(digest, "little") % PRIME


def ref_restated_rng(word):
    digest = hashlib.blake2b(word.to_bytes(8, "little"),
                             digest_size=32).digest()
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(digest[:16], "little"),
                  "inc": int.from_bytes(digest[16:], "little") | 1},
        "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def ref_stream_bits(word, dim, dtype=None):
    udt = _uint_dtype(resolve_dtype(dtype))
    rng = ref_restated_rng(word)
    return rng.integers(0, 2 ** (8 * udt.itemsize), size=dim, dtype=udt)


def ref_self_seal_bits(shared_seed, party_id, dim, dtype=None, context=()):
    word = ref_stream_word(shared_seed, context, ("self", party_id))
    return ref_stream_bits(word, dim, dtype)


def ref_net_mask(self, party_id):
    """A member's net mask: its personal stream, whatever its cohort."""
    self._check_party(party_id)
    return ref_self_seal_bits(self.shared_seed, party_id, self.dim,
                              dtype=self.dtype, context=self.context)


def _ref_evaluate_poly(coefficients, x):
    acc = 0
    for coefficient in reversed(coefficients):
        acc = (acc * x + coefficient) % PRIME
    return acc


def ref_split_secret(secret, num_shares, threshold, rng):
    secret = int(secret)
    if not 0 <= secret < PRIME:
        raise ValueError(
            f"secret {secret} is outside the share field [0, 2^61 - 1)")
    num_shares = int(num_shares)
    threshold = int(threshold)
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1 (got {threshold})")
    if num_shares < threshold:
        raise ValueError(
            f"cannot split into {num_shares} shares with threshold "
            f"{threshold}: any t-of-n sharing needs n >= t")
    if num_shares >= PRIME:
        raise ValueError(f"num_shares {num_shares} exceeds the field size")
    coefficients = [secret] + [
        int(rng.integers(PRIME)) for _ in range(threshold - 1)]
    return [(x, _ref_evaluate_poly(coefficients, x))
            for x in range(1, num_shares + 1)]


def ref_split_secrets(secrets, num_shares, threshold, rng):
    """Every word's share values at ``x = 1..num_shares``, with all blinding
    coefficients from one ``(len(secrets), threshold - 1)`` draw on ``rng``
    (as a session draws an owner's bundle)."""
    blinding = rng.integers(PRIME, size=(len(secrets), threshold - 1)).tolist()
    return [[_ref_evaluate_poly([int(secret), *coefficients], x)
             for x in range(1, num_shares + 1)]
            for secret, coefficients in zip(secrets, blinding)]


def ref_reconstruct_secret(shares):
    shares = list(shares)
    if not shares:
        raise ValueError("cannot reconstruct a secret from zero shares")
    xs = [int(x) for x, _ in shares]
    ys = [int(y) % PRIME for _, y in shares]
    if any(not 0 < x < PRIME for x in xs):
        raise ValueError(f"share x-coordinates must lie in (0, PRIME); "
                         f"got {sorted(set(xs))[:8]}")
    if len(set(xs)) != len(xs):
        raise ValueError(f"duplicate share x-coordinates: {sorted(xs)}")
    total = 0
    for i, (x_i, y_i) in enumerate(zip(xs, ys)):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(xs):
            if j == i:
                continue
            numerator = (numerator * x_j) % PRIME
            denominator = (denominator * (x_j - x_i)) % PRIME
        total = (total + y_i * numerator
                 * pow(denominator, PRIME - 2, PRIME)) % PRIME
    return total
