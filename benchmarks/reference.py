"""What the probes and the differential tests share: one timer, one "parent".

``best_us`` is the probes' only timing helper.  The ``ref_*`` functions are the
bodies a perf PR replaced, kept verbatim — the detection plane's previous MMD
code (three distance matrices and three ``exp`` per pair, a Python loop per
shared class, a median heuristic gathered through ``triu_indices``) and the
data plane's previous per-image ``np.roll`` sampler and eager window assembly.
``tests/test_{detection,data}_differential.py`` pin the live code against them
and ``benchmarks/{detection,data}_plane.py`` check against the same copy.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.federated import PartyWindowData
from repro.utils.validation import check_2d


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
