"""Shamir t-of-n secret sharing over GF(2^61 - 1).

Bonawitz-style dropout recovery needs each party's mask seeds to survive
the party itself: before a round starts, every party splits its secrets
into ``n`` shares of which any ``t`` reconstruct the value and any
``t - 1`` reveal nothing.  The field is the Mersenne prime 2^61 - 1 —
large enough to hold the 61-bit seed digests the aggregation session
shares, small enough that every share fits one machine word and all the
polynomial arithmetic stays exact in Python ints.

The polynomial is the textbook construction: ``f(x) = secret + a_1 x +
... + a_{t-1} x^{t-1}`` with uniformly random coefficients, shares are
``(x, f(x))`` for ``x = 1..n``, and reconstruction is Lagrange
interpolation at ``x = 0``: ``secret = sum(y_i * w_i)`` with weights that
depend only on the share x-coordinates (:func:`lagrange_weights`, one Fermat
inverse ``pow(v, PRIME - 2, PRIME)`` per share), so a caller opening many
words with one quorum computes them once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Mersenne prime 2^61 - 1: the share field.  Secrets are 61-bit words.
PRIME = (1 << 61) - 1


def _evaluate_poly(coefficients: Sequence[int], x: int) -> int:
    """Evaluate ``sum(c_k * x**k)`` mod PRIME via Horner's rule."""
    acc = 0
    for coefficient in reversed(coefficients):
        acc = (acc * x + coefficient) % PRIME
    return acc


def split_secrets(secrets: Sequence[int], num_shares: int, threshold: int,
                  rng: np.random.Generator) -> list[list[int]]:
    """Split every word of ``secrets`` into ``num_shares`` shares, any
    ``threshold`` of which reconstruct it.

    Returns one row per word: ``row[x - 1]`` is the word's share value at
    ``x = 1..num_shares``.  All blinding coefficients come from one draw on
    ``rng``, so a seeded generator yields a reproducible sharing (the
    determinism contract of the whole repo).
    """
    secrets = [int(secret) for secret in secrets]
    for secret in secrets:
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
    blinding = rng.integers(PRIME, size=(len(secrets), threshold - 1))
    xs = range(1, num_shares + 1)
    return [[_evaluate_poly([secret, *coefficients], x) for x in xs]
            for secret, coefficients in zip(secrets, blinding.tolist())]


def split_secret(secret: int, num_shares: int, threshold: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """Split one ``secret``: ``(x, y)`` pairs with ``x = 1..num_shares``
    (the one-word call of :func:`split_secrets`)."""
    (values,) = split_secrets([secret], num_shares, threshold, rng)
    return list(enumerate(values, start=1))


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


def reconstruct_secret(shares: Iterable[tuple[int, int]]) -> int:
    """Recover the secret from ``(x, y)`` shares by Lagrange interpolation
    at ``x = 0``.

    The caller is responsible for passing at least ``threshold`` shares;
    with fewer, interpolation silently yields a wrong value — which is why
    :class:`~repro.privacy.secure_aggregation.SecureAggregationSession`
    gates reconstruction on the resolved threshold *before* calling here.
    """
    shares = list(shares)
    weights = lagrange_weights(x for x, _ in shares)
    return sum(int(y) * w for (_, y), w in zip(shares, weights)) % PRIME


__all__ = ["PRIME", "split_secret", "split_secrets", "lagrange_weights",
           "reconstruct_secret"]
