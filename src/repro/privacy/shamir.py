"""Shamir t-of-n secret sharing over GF(2^61 - 1).

Bonawitz-style dropout recovery needs each party's mask seeds to survive
the party itself: before a round starts, every party splits its secrets
into ``n`` shares of which any ``t`` reconstruct the value and any
``t - 1`` reveal nothing.  The field is the Mersenne prime 2^61 - 1 —
large enough to hold the 61-bit stream seeds the aggregation session
shares, small enough that every share fits one machine word and a share
polynomial evaluates exactly in 64-bit limbs.

The polynomial is the textbook construction: ``f(x) = secret + a_1 x +
... + a_{t-1} x^{t-1}`` with uniformly random coefficients, shares are
``(x, f(x))`` for ``x = 1..n``, and reconstruction is Lagrange
interpolation at ``x = 0``: ``secret = sum(y_i * w_i)`` with weights that
depend only on the share x-coordinates (:func:`lagrange_weights`, one Fermat
inverse ``pow(v, PRIME - 2, PRIME)`` per share).

Both directions are array programs on ``uint64`` limbs (:func:`_mul_add_mod`),
exactly the Python-int arithmetic: :func:`share_bundles` evaluates every
polynomial of any stack of word bundles at every ``x`` in one Horner pass,
and :func:`open_shares` opens
any stack of words held by one quorum in one multiply pass, with the
quorum's weights computed once per process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Mersenne prime 2^61 - 1: the share field.  Secrets are 61-bit words.
PRIME = (1 << 61) - 1

_P = np.uint64(PRIME)
_LOW30 = np.uint64((1 << 30) - 1)
_LOW31 = np.uint64((1 << 31) - 1)


def _reduce(s: np.ndarray) -> np.ndarray:
    """``s mod PRIME`` for ``s < 2^64``: fold the bits above 61 down
    (``2^61 = 1``), then at most one subtraction (``s - PRIME`` wraps
    past ``s`` exactly when ``s < PRIME``)."""
    s = (s & _P) + (s >> np.uint64(61))
    return np.minimum(s, s - _P)


def _mul_add_mod(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``(a * b + c) mod PRIME`` elementwise for ``a, b, c < PRIME``, in
    ``uint64`` (one Horner step).

    With 31-bit limbs ``a = a1 2^31 + a0`` (likewise ``b``), every partial
    product fits a word, and ``2^62 = 2``, ``m 2^31 = (m >> 30) +
    (m mod 2^30) 2^31`` fold the rest: the sum stays below ``2^64``.
    """
    a1, a0 = a >> np.uint64(31), a & _LOW31
    b1, b0 = b >> np.uint64(31), b & _LOW31
    mid = a1 * b0 + a0 * b1
    return _reduce(((a1 * b1) << np.uint64(1)) + (mid >> np.uint64(30))
                   + ((mid & _LOW30) << np.uint64(31)) + a0 * b0 + c)


def share_bundles(words: np.ndarray, blinding: np.ndarray,
                  num_shares: int) -> np.ndarray:
    """Shares of every word of a stack of bundles, at ``x = 1..num_shares``.

    ``words`` is ``(..., bundle)`` and ``blinding`` ``(..., bundle, t - 1)``
    (the coefficients of ``x^1 .. x^{t-1}``), all field elements; the result
    is ``(..., bundle, num_shares)`` ``uint64``.  One Horner pass from the top
    coefficient down covers the whole stack.
    """
    coefficients = np.concatenate(
        [np.asarray(words, dtype=np.uint64)[..., None],
         np.asarray(blinding, dtype=np.uint64)], axis=-1)
    xs = np.arange(1, num_shares + 1, dtype=np.uint64)
    acc = np.repeat(coefficients[..., -1:], num_shares, axis=-1)
    for k in range(coefficients.shape[-1] - 2, -1, -1):
        acc = _mul_add_mod(acc, xs, coefficients[..., k, None])
    return acc


def lagrange_weights(xs: Iterable[int]) -> list[int]:
    """The Lagrange basis at ``x = 0`` for share points ``xs``:
    ``w_i = prod_{j != i} x_j / (x_j - x_i)`` mod PRIME, so the secret
    behind shares ``(x_i, y_i)`` is ``sum(y_i * w_i)`` mod PRIME."""
    xs = [int(x) for x in xs]
    if not xs:
        raise ValueError("cannot reconstruct a secret from zero shares")
    if any(not 0 < x < PRIME for x in xs):
        raise ValueError(f"share x-coordinates must lie in (0, PRIME); "
                         f"got {sorted(set(xs))[:8]}")
    if len(set(xs)) != len(xs):
        raise ValueError(f"duplicate share x-coordinates: {sorted(xs)}")
    weights = []
    for i, x_i in enumerate(xs):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(xs):
            if j == i:
                continue
            numerator = (numerator * x_j) % PRIME
            denominator = (denominator * (x_j - x_i)) % PRIME
        weights.append(numerator * pow(denominator, PRIME - 2, PRIME) % PRIME)
    return weights


@lru_cache(maxsize=64)
def _weights_at_zero(xs: tuple[int, ...]) -> np.ndarray:
    """:func:`lagrange_weights` of one quorum as a read-only ``uint64``
    vector, computed once per process."""
    weights = np.array(lagrange_weights(xs), dtype=np.uint64)
    weights.flags.writeable = False
    return weights


def open_shares(shares: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    """The words behind a stack of shares: ``shares[..., k]`` is held at
    ``x = xs[k]``, and every word opens as ``sum(y_k * w_k)`` mod PRIME —
    one :func:`_mul_add_mod` pass for every product, then ``len(xs) - 1``
    folding adds (``uint64``, shape ``shares.shape[:-1]``)."""
    weights = _weights_at_zero(tuple(int(x) for x in xs))
    terms = _mul_add_mod(shares, weights, np.uint64(0))
    acc = terms[..., 0]
    for k in range(1, len(weights)):
        acc = _reduce(acc + terms[..., k])  # both < PRIME: no overflow
    return acc
