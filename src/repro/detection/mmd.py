"""Kernel Maximum Mean Discrepancy (Gretton et al., 2012).

MMD compares two sample sets by the distance between their mean embeddings
in the RKHS of a positive-definite kernel.  We use the RBF kernel
``k(x, y) = exp(-gamma * ||x - y||^2)`` with the median heuristic for
``gamma`` by default, matching the paper's detector, and the biased
V-statistic (non-negative by construction).

Every statistic here is a quadratic form ``w' K w`` over one
:func:`rbf_kernel` Gram.  Every window-sized statistic — a window's party
reports, the calibration null, latent-memory matching and the merge gate —
goes through :func:`class_conditional_mmd_batch` (one Gram per entry, one
weight column per class), so the threshold is a quantile of the very
statistic it is compared with.  Fusing whole clusters, whose pools grow with
the shifted population, goes through :func:`class_conditional_mmd` (one Gram
per class pair, :func:`_mmd2_pairs`).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.utils.validation import check_2d

# Rows of the distance matrix the bandwidth finishes per step: its largest
# temporaries are this many rows, never the matrix.
_BLOCK_ROWS = 128
# A counting pass sorts each open key window into 2**16 buckets.
_BUCKET_BITS = 16
_BUCKETS = 1 << _BUCKET_BITS
# Row pairs whose distances bracket the median ranks before the full pass, and
# how many of them are gathered at a time.
_SAMPLE_PAIRS = 16384
_SAMPLE_CHUNK = 1024
# Keys of the finite non-negative doubles lie below this one (+inf's).
_KEY_END = 0x7FF0000000000000
# A class enters the class-conditional MMD when it has this many rows on both
# sides; with none, the statistic is the unconditional MMD.
_MIN_PER_CLASS = 2
# Padding entries a batch may carry before a fresh batch is cheaper: one more
# batch's numpy dispatches (~50 us) cost what ~16k kernel entries (~3 ns) do.
_PAD_ENTRIES = 16384
# Gram entries one stack of class_conditional_mmd_batch holds (1 MB of
# float64): 14 reports of 48 rows against 48, so a batch of 40 parties is three
# stacks, faster than one 2.9 MB Gram that leaves the cache, and its working
# set stays a few MB at any batch size.  A stack of _mmd2_pairs counts its
# rows x features too: at width 48 a short pair's rows outweigh its Gram.
_STACK_ENTRIES = 1 << 17


def median_heuristic_gamma(x: np.ndarray, y: np.ndarray | None = None) -> float:
    """RBF bandwidth via the median heuristic: ``gamma = 1 / (2 * median^2)``.

    The median is taken over pairwise distances of the pooled sample.  Falls
    back to 1.0 when all points coincide.  It is selected, not sorted: the
    distances are recomputed block by block in every pass of
    :func:`_select_upper`, so the footprint is a few ``_BLOCK_ROWS x n``
    blocks and no ``n x n`` array exists.  A row that is not finite raises,
    since its distances would make the bandwidth (and every MMD) ``nan``;
    the error names it as a row of ``x`` or of ``y``.
    """
    x = check_2d(x, "x")
    pooled = x if y is None else np.vstack([x, check_2d(y, "y")])
    n = pooled.shape[0]
    with np.errstate(over="ignore"):  # an overflow is reported below
        norms = (pooled ** 2).sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(4.0 * norms))
    if bad.size:
        row = int(bad[0])
        where = f"x row {row}" if row < x.shape[0] else f"y row {row - x.shape[0]}"
        raise ValueError(f"{where} is not finite (or its squared norm overflows)")
    pairs = n * (n - 1) // 2
    if pairs == 0:
        return 1.0
    low, high = _select_upper(pooled, norms, ((pairs - 1) // 2, pairs // 2))
    med2 = low if pairs % 2 else (low + high) / 2  # what np.median returns
    if med2 <= 0:
        return 1.0
    return 1.0 / (2.0 * med2)


def _distance_blocks(pooled: np.ndarray, norms: np.ndarray):
    """The clamped squared-distance matrix, one block of rows at a time.

    A block is its rows against themselves and every later row,
    ``max((n_i + n_j) - 2 <x_i, x_j>, 0)`` in that order, the order of the
    reference in ``benchmarks/reference.py`` that the bandwidth is pinned to.
    Entries on or below the diagonal are set to -1, whose key is negative, so
    no key window holds them.  Up to ``2 * _BLOCK_ROWS`` rows are one block:
    the product is then ``x @ x.T`` itself, the reference's own ``syrk``.
    """
    n = pooled.shape[0]
    step = n if n <= 2 * _BLOCK_ROWS else _BLOCK_ROWS
    for start in range(0, n - 1, step):
        stop = min(start + step, n)
        gram = pooled[start:stop] @ pooled[start:].T
        gram *= 2.0
        d2 = np.add.outer(norms[start:stop], norms[start:])
        d2 -= gram
        del gram
        np.maximum(d2, 0.0, out=d2)
        np.copyto(d2[:, :stop - start], -1.0, where=np.tri(stop - start, dtype=bool))
        yield d2


def _select_upper(pooled: np.ndarray, norms: np.ndarray, ranks) -> list[float]:
    """Values of the given ranks among the strict upper triangle's distances.

    A selection on order-preserving keys: non-negative doubles viewed as
    int64 sort like the doubles.  Each rank keeps a key window ``[lo, hi)``,
    its rank inside it and the number of values inside.  Past ``_BLOCK_ROWS *
    n`` distances, :func:`_bracket` guesses a window from a sample and one
    pass counts the values below it and gathers those inside, which usually
    holds both ranks.  A rank it misses, or a window too crowded to gather,
    is narrowed by counting passes that histogram every open window; once the
    open windows hold at most ``_BLOCK_ROWS * n`` values, one pass gathers
    them.  ``np.partition`` picks the ranks from what was gathered, so the
    result never depends on the sample.
    """
    n = pooled.shape[0]
    total = n * (n - 1) // 2
    windows = [[0, _KEY_END, rank, total] for rank in ranks]
    found = {}
    if total > _BLOCK_ROWS * n:
        lo, hi = _bracket(pooled, norms, ranks, total)
        below = held = 0
        gathered = []
        for d2 in _distance_blocks(pooled, norms):
            keys = d2.view(np.int64)
            under = keys < lo  # the -1 entries on and below the diagonal too
            mask = keys < hi
            mask ^= under
            below += np.count_nonzero(under) - len(d2) * (len(d2) + 1) // 2
            held += np.count_nonzero(mask)
            if held <= _BLOCK_ROWS * n:  # held only grows: a drop is final
                gathered.append(d2[mask])
            else:
                gathered = None
            del under, mask  # not alive while the next block is computed
        if gathered is not None:
            found[lo, hi] = gathered
        thirds = ((0, lo, 0, below), (lo, hi, below, held),
                  (hi, _KEY_END, below + held, total - below - held))
        for window in windows:
            rank = window[2]
            window[:] = next([start, stop, rank - offset, count]
                             for start, stop, offset, count in thirds
                             if offset <= rank < offset + count)
    while True:
        open_ = {(lo, hi): count for lo, hi, _rank, count in windows
                 if hi - lo > 1 and (lo, hi) not in found}
        if sum(open_.values()) <= _BLOCK_ROWS * n:
            break
        plans = {}
        for lo, hi in open_:
            shift = max(0, (hi - lo - 1).bit_length() - _BUCKET_BITS)
            plans[lo, hi] = shift, lo >> shift, np.zeros(_BUCKETS, dtype=np.int64)
        for d2 in _distance_blocks(pooled, norms):
            keys = d2.view(np.int64)
            for (lo, hi), (shift, base, counts) in plans.items():
                bucket = keys[(keys >= lo) & (keys < hi)]
                bucket >>= shift
                bucket -= base
                np.clip(bucket, 0, _BUCKETS - 1, out=bucket)
                counts += np.bincount(bucket, minlength=_BUCKETS)
        for window in windows:
            lo, hi, rank, _count = window
            if (lo, hi) not in plans:
                continue
            shift, base, counts = plans[lo, hi]
            below = np.cumsum(counts)
            b = int(np.searchsorted(below, rank, side="right"))
            window[:] = [lo if b == 0 else max(lo, (base + b) << shift),
                         hi if b == _BUCKETS - 1 else min(hi, (base + b + 1) << shift),
                         rank - (int(below[b - 1]) if b else 0), int(counts[b])]
    if open_:
        found.update((window, []) for window in open_)
        for d2 in _distance_blocks(pooled, norms):
            keys = d2.view(np.int64)
            for lo, hi in open_:
                found[lo, hi].append(d2[(keys >= lo) & (keys < hi)])
    values = []
    for lo, hi, rank, _count in windows:
        if hi - lo == 1:  # narrowed to one key: the value itself
            values.append(float(np.int64(lo).view(np.float64)))
        else:
            inside = np.concatenate(found[lo, hi])
            values.append(float(np.partition(inside, rank)[rank]))
    return values


def _bracket(pooled: np.ndarray, norms: np.ndarray, ranks, total: int) -> tuple[int, int]:
    """A key window ``[lo, hi)`` that all but surely holds the given ranks.

    The ranks' quantiles among the distances of ``_SAMPLE_PAIRS`` uniformly
    drawn row pairs ``i != j``, widened by four standard errors of a sample
    median each way (about 3 % of all distances at the default size).  The
    pairs come from a generator of the function's own with a constant seed,
    so no run stream moves, and their rows are gathered ``_SAMPLE_CHUNK``
    pairs at a time.
    """
    n, size = pooled.shape[0], _SAMPLE_PAIRS
    rng = np.random.default_rng(0)
    first = rng.integers(n, size=size)
    second = (first + rng.integers(1, n, size=size)) % n
    sample = np.empty(size)
    for start in range(0, size, _SAMPLE_CHUNK):
        part = slice(start, start + _SAMPLE_CHUNK)
        sample[part] = np.einsum("id,id->i", pooled[first[part]], pooled[second[part]])
    sample = np.maximum(norms[first] + norms[second] - 2.0 * sample, 0.0)
    margin = 2.0 * size ** 0.5
    low = int(np.floor(ranks[0] / total * size - margin))
    high = int(np.ceil(ranks[-1] / total * size + margin))
    sample = np.partition(sample, [min(max(p, 0), size - 1) for p in (low, high)])
    return (0 if low < 0 else int(sample[low].view(np.int64)),
            _KEY_END if high >= size else int(sample[high].view(np.int64)) + 1)


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma) -> np.ndarray:
    """RBF Gram matrix ``exp(-gamma * ||x_i - y_j||^2)``.

    ``x`` and ``y`` are row sets, or equally long stacks of row sets: one
    Gram per stack entry, ``gamma`` a scalar or shaped ``(stack, 1, 1)``.
    A ``nan`` bandwidth is rejected like a non-positive one: every MMD it
    scored would be ``nan`` and compare False against every threshold.
    """
    if not (np.asarray(gamma) > 0).all():
        raise ValueError("gamma must be positive")
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if min(x.ndim, y.ndim) < 2 or 0 in (x.shape[-2], y.shape[-2]):
        raise ValueError("x and y must be (..., n_samples >= 1, n_features)")
    # ||x_i - y_j||^2 = [-2 x_i, |x_i|^2, 1] . [y_j, 1, |y_j|^2]: the distance
    # matrix is one product (its right operand laid out contiguous, so gemm
    # takes it), with no broadcast pass over the n x m entries afterwards.
    d = x.shape[-1]
    x_sq = np.einsum("...id,...id->...i", x, x)
    left = np.empty((*x.shape[:-1], d + 2))
    np.multiply(x, -2.0, out=left[..., :d])
    left[..., d] = x_sq
    left[..., d + 1] = 1.0
    right = np.empty((*y.shape[:-2], d + 2, y.shape[-2]))
    right[..., :d, :] = np.swapaxes(y, -1, -2)
    right[..., d, :] = 1.0
    right[..., d + 1, :] = x_sq if y is x else np.einsum("...jd,...jd->...j", y, y)
    k = left @ right
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    return np.exp(k, out=k)


def _padded_lengths(lengths: list[int]) -> list[int]:
    """Each pair's padded length in one call's batching plan.

    Longest first, a pair opens a new batch once the running one would hold
    ``_PAD_ENTRIES`` of padding; a batch pads to its first pair's length.
    """
    padded, head, padding = [0] * len(lengths), 0, 0
    for k in sorted(range(len(lengths)), key=lambda k: -lengths[k]):
        padding += head ** 2 - lengths[k] ** 2
        if not head or padding > _PAD_ENTRIES:
            head, padding = lengths[k], 0
        padded[k] = head
    return padded


def _mmd2_pairs(pairs: list[tuple[np.ndarray, np.ndarray]], gamma: float) -> np.ndarray:
    """Biased squared MMD of every ``(a, b)`` row-set pair, batched.

    A pair is stacked once, ``z = [a; b]``, and its statistic read off the
    one Gram ``K = rbf_kernel(z, z)`` as the quadratic form ``w' K w`` with
    ``w = +1/|a|`` on ``a``'s rows and ``-1/|b|`` on ``b``'s: the three block
    means of the V-statistic in one product.  Each pair is zero-padded to its
    length in :func:`_padded_lengths`' plan; padding rows carry weight 0 and
    contribute exactly nothing.  The pairs of one padded length run as stacks
    of at most ``_STACK_ENTRIES`` Gram plus row entries.
    """
    lengths = [len(a) + len(b) for a, b in pairs]
    padded = _padded_lengths(lengths)
    width = pairs[0][0].shape[1]
    order = sorted(range(len(pairs)), key=lambda k: -padded[k])
    mmd2 = np.empty(len(pairs))
    for length, group in itertools.groupby(order, key=padded.__getitem__):
        group = list(group)
        size = max(1, _STACK_ENTRIES // (length * (length + width)))
        for batch in (group[s:s + size] for s in range(0, len(group), size)):
            z = np.zeros((len(batch), length, width))
            w = np.zeros(z.shape[:2])
            for row, k in enumerate(batch):
                a, b = pairs[k]
                na, both = len(a), lengths[k]
                z[row, :na], z[row, na:both] = a, b
                w[row, :na], w[row, na:both] = 1.0 / na, -1.0 / (both - na)
            kernel = rbf_kernel(z, z, gamma)
            mmd2[batch] = np.einsum("pi,pi->p", (kernel @ w[:, :, None])[:, :, 0], w)
    return np.maximum(mmd2, 0.0)


def mmd2_biased(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """Biased (V-statistic) squared MMD; non-negative by construction."""
    x, y = check_2d(x, "x"), check_2d(y, "y")
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    return float(_mmd2_pairs([(x, y)], gamma)[0])


def mmd(x: np.ndarray, y: np.ndarray, gamma: float | None = None) -> float:
    """MMD distance (square root of the biased squared estimate)."""
    return float(np.sqrt(mmd2_biased(x, y, gamma)))


def _stratify(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, dict]:
    """``rows`` sorted by class and ``{class: slice}`` of each class's run."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    starts = [0, *cuts]
    return rows[order], dict(zip(ordered[starts].tolist(),
                                 map(slice, starts, [*cuts, len(ordered)])))


def class_conditional_mmd(x: np.ndarray, x_labels: np.ndarray,
                          y: np.ndarray, y_labels: np.ndarray,
                          gamma: float | None = None) -> float:
    """Label-stratified MMD: count-weighted mean of per-class MMDs.

    Parties hold their own labels, so Algorithm 1 can condition the covariate
    statistic on Y.  This isolates movement of ``P(X|Y)``'s image in feature
    space from label-composition sampling noise — essential at small window
    sizes, where a fresh multinomial label draw alone moves unconditional
    MMD.  Label-distribution changes are JSD's job, keeping the two detectors
    orthogonal.  Falls back to unconditional MMD when no class appears at
    least ``_MIN_PER_CLASS`` times in both sets.

    Each class pair is its own Gram (:func:`_mmd2_pairs`), so the work grows
    with the classes, not with the pooled sets squared: the form for fusing
    whole clusters.  Window-sized sets go through
    :func:`class_conditional_mmd_batch`, which scores the same statistic.
    """
    x, y = check_2d(x, "x"), check_2d(y, "y")
    x_labels, y_labels = np.asarray(x_labels), np.asarray(y_labels)
    if x_labels.shape != (x.shape[0],) or y_labels.shape != (y.shape[0],):
        raise ValueError("labels must align with embedding rows")
    if gamma is None:
        gamma = median_heuristic_gamma(x, y)
    x_rows, x_strata = _stratify(x, x_labels)
    y_rows, y_strata = _stratify(y, y_labels)
    shared = [(x_rows[rows], y_rows[y_strata[c]])
              for c, rows in x_strata.items() if c in y_strata]
    shared = [(a, b) for a, b in shared if min(len(a), len(b)) >= _MIN_PER_CLASS]
    if not shared:
        return mmd(x, y, gamma)
    counts = np.array([min(len(a), len(b)) for a, b in shared])
    weighted = np.sqrt(_mmd2_pairs(shared, gamma)) * counts
    # Summed one add at a time in class order: the bytes fusion is pinned to.
    return float(np.cumsum(weighted)[-1] / counts.sum())


def class_conditional_mmd_batch(xs: list[np.ndarray], xs_labels: list[np.ndarray],
                                ys: list[np.ndarray], ys_labels: list[np.ndarray],
                                gamma=None, ids=None, rows=None) -> np.ndarray:
    """:func:`class_conditional_mmd` of every ``(xs[i], ys[i])`` entry at once.

    An entry's class pairs share one Gram over ``z = [x; y]``: class ``c``'s
    MMD² is ``w_c' K w_c`` with ``+1/n_x`` on ``x``'s class-``c`` rows and
    ``-1/n_y`` on ``y``'s, so each of the entry's classes is one column of
    ``W`` and the unconditional fallback one more.  Entries of one length and
    one class count run as stacks of up to ``_STACK_ENTRIES`` Gram entries; a
    stack is one :func:`rbf_kernel`, one batched ``K @ W`` and one ``einsum``
    whose every slice has its one-entry call's shape, so each score is the
    bytes of that call, whatever else the batch holds.  ``gamma`` is one
    bandwidth, or ``None`` for each entry's own median heuristic.  With
    ``rows``, every ``x`` and ``y`` is an index array into it, and rows are
    gathered one stack at a time.

    A row that is not finite raises, naming ``ids[i]`` (default ``i``) and
    the row: its kernel row would make every column of its entry ``nan``,
    and ``nan`` compares False against every threshold.
    """
    if not len(xs) == len(xs_labels) == len(ys) == len(ys_labels):
        raise ValueError("xs, xs_labels, ys and ys_labels must align")
    ids = range(len(xs)) if ids is None else ids
    # Rows are cast to float64 stack by stack, in place in ``z``.
    sets = [np.asarray(s) for s in (*xs, *ys)]
    if rows is not None:
        rows = check_2d(rows, "rows")
        if any(s.ndim != 1 or not len(s) for s in sets):
            raise ValueError("with rows, every x and y must be a non-empty index array")
    elif (any(s.ndim != 2 or not len(s) for s in sets)
          or len({s.shape[1] for s in sets}) > 1):
        raise ValueError("every x and y must be (n_samples >= 1, n_features),"
                         " all of one width")

    def fetch(k: int) -> np.ndarray:
        return sets[k] if rows is None else rows[sets[k]]

    labels = [np.asarray(lab) for lab in (*xs_labels, *ys_labels)]
    if any(lab.shape != (len(s),) for lab, s in zip(labels, sets)):
        raise ValueError("labels must align with embedding rows")
    if not xs:
        return np.zeros(0)
    e, width = len(xs), (sets[0] if rows is None else rows).shape[1]
    gammas = np.full(e, 1.0 if gamma is None else gamma, dtype=np.float64)
    # A row's slot: its class's rank among its entry's classes (as the
    # one-entry call ranks them) on x's side, c + that on y's.
    classes, codes = np.unique(np.concatenate(labels), return_inverse=True)
    lengths = np.array([len(s) for s in sets])
    owner = np.repeat(np.tile(np.arange(e), 2), lengths)
    present = np.zeros((e, len(classes)), dtype=bool)
    present[owner, codes] = True
    ranks = np.split((np.cumsum(present, axis=1) - 1)[owner, codes],
                     np.cumsum(lengths)[:-1])
    n = lengths.reshape(2, e)
    keys = list(zip(n.sum(axis=0).tolist(), present.sum(axis=1).tolist()))
    out = np.empty(e)
    for (length, c), group in itertools.groupby(sorted(range(e), key=keys.__getitem__),
                                                key=keys.__getitem__):
        group = list(group)
        size = max(1, _STACK_ENTRIES // length ** 2)
        for stack in (np.array(group[s:s + size]) for s in range(0, len(group), size)):
            z = np.empty((len(stack), length, width))
            slot = np.empty(z.shape[:2], dtype=np.intp)
            for k, i in enumerate(stack):
                x_rows = n[0, i]
                z[k, :x_rows], z[k, x_rows:] = fetch(i), fetch(e + i)
                slot[k, :x_rows], slot[k, x_rows:] = ranks[i], ranks[e + i] + c
            with np.errstate(over="ignore"):  # an overflow is reported below
                bad = np.argwhere(~np.isfinite(4.0 * np.einsum("pid,pid->pi", z, z)))
            if bad.size:
                k, row = bad[0]
                i = stack[k]
                where = f"x row {row}" if row < n[0, i] else f"y row {row - n[0, i]}"
                raise ValueError(f"party {ids[i]}: {where} is not finite "
                                 "(or its squared norm overflows)")
            if gamma is None:
                gammas[stack] = [median_heuristic_gamma(fetch(i), fetch(e + i))
                                 for i in stack]
            # Each slot's weight: a class counts when _MIN_PER_CLASS rows of
            # it lie on both sides; the last column is the unconditional pair.
            entry = np.arange(len(stack))[:, None]
            tally = np.bincount((entry * 2 * c + slot).ravel(),
                                minlength=len(stack) * 2 * c).reshape(len(stack), 2 * c)
            counts = np.minimum(tally[:, :c], tally[:, c:])
            counts[counts < _MIN_PER_CLASS] = 0
            weight = np.zeros(tally.shape)
            np.divide(1.0, tally[:, :c], out=weight[:, :c], where=counts > 0)
            np.divide(-1.0, tally[:, c:], out=weight[:, c:], where=counts > 0)
            w = np.zeros((*z.shape[:2], c + 1))
            w[entry, np.arange(length), slot % c] = weight[entry, slot]
            side = np.column_stack([1.0 / n[0, stack], -1.0 / n[1, stack]])
            w[:, :, c] = side[entry, slot // c]
            # The Gram lives only for its product: the next stack's never meets it.
            kw = rbf_kernel(z, z, gammas[stack, None, None]) @ w
            scores = np.sqrt(np.maximum(np.einsum("pic,pic->pc", kw, w), 0.0))
            total = counts.sum(axis=1)
            out[stack] = np.where(
                total > 0,
                (scores[:, :c] * counts).sum(axis=1) / np.maximum(total, 1),
                scores[:, c])
    return out
