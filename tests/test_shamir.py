"""Shamir t-of-n secret sharing over GF(2^61 - 1): the recovery substrate.

Property suite (Hypothesis) for ``repro.privacy.shamir``'s two passes, the
ones a session runs: ``share_bundles`` (here on one word and one draw of
blinding coefficients) and ``open_shares``:

* any ``t`` of the ``n`` shares reconstruct the secret exactly — including
  under arbitrary dropout patterns (random surviving subsets, any order);
* ``t - 1`` shares reveal nothing: reconstruction lands on the secret only
  with probability ``1/p`` (so a seeded random draw never does);
* share values depend on the split RNG, so two sessions never reuse share
  material for one secret;
* opening fails loudly on no shares, duplicate or out-of-range share points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.privacy.shamir import PRIME, open_shares, share_bundles

secrets = st.integers(min_value=0, max_value=PRIME - 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def split_secret(secret, num_shares, threshold, rng):
    """``(x, y)`` shares of one word at ``x = 1..num_shares``."""
    blinding = rng.integers(PRIME, size=(1, threshold - 1))
    (values,) = share_bundles([secret], blinding, num_shares).tolist()
    return list(enumerate(values, start=1))


def reconstruct_secret(shares):
    """The word a set of ``(x, y)`` shares opens to."""
    xs, ys = zip(*shares) if shares else ((), ())
    (word,) = open_shares(np.array([ys], dtype=np.uint64), xs).tolist()
    return word


@st.composite
def t_of_n(draw):
    threshold = draw(st.integers(min_value=1, max_value=6))
    num_shares = draw(st.integers(min_value=threshold, max_value=9))
    return threshold, num_shares


class TestRoundTrip:
    @given(secret=secrets, tn=t_of_n(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_any_t_shares_reconstruct_the_secret(self, secret, tn, seed):
        threshold, num_shares = tn
        rng = np.random.default_rng(seed)
        shares = split_secret(secret, num_shares, threshold, rng)
        assert len(shares) == num_shares
        assert [x for x, _ in shares] == list(range(1, num_shares + 1))
        # Every contiguous window and a shuffled random subset — the
        # dropout pattern (who survives) must not matter, nor the order
        # the server happens to query holders in.
        for start in range(num_shares - threshold + 1):
            window = shares[start:start + threshold]
            assert reconstruct_secret(window) == secret
        survivors = list(rng.permutation(num_shares)[:threshold])
        subset = [shares[i] for i in survivors]
        assert reconstruct_secret(subset) == secret

    @given(secret=secrets, tn=t_of_n(), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_extra_shares_beyond_threshold_agree(self, secret, tn, seed):
        """Interpolating through more than t points still hits the secret:
        the polynomial has degree t-1, so any superset is consistent."""
        threshold, num_shares = tn
        shares = split_secret(secret, num_shares, threshold,
                              np.random.default_rng(seed))
        assert reconstruct_secret(shares) == secret

    @given(secret=secrets, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_threshold_one_is_a_broadcast(self, secret, seed):
        shares = split_secret(secret, 4, 1, np.random.default_rng(seed))
        for share in shares:
            assert reconstruct_secret([share]) == secret
            assert share[1] == secret  # degree-0 polynomial: y == secret


class TestStacks:
    @given(words=st.lists(secrets, min_size=6, max_size=6), tn=t_of_n(),
           seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_a_stack_of_bundles_is_its_bundles_one_by_one(self, words, tn,
                                                          seed):
        """The session shares an ``(owners, bundle)`` stack in one pass:
        each bundle's shares are those of its own pass."""
        threshold, num_shares = tn
        stack = np.array(words, dtype=np.uint64).reshape(2, 3)
        blinding = np.random.default_rng(seed).integers(
            PRIME, size=(2, 3, threshold - 1), dtype=np.uint64)
        got = share_bundles(stack, blinding, num_shares)
        assert got.shape == (2, 3, num_shares)
        for owner in range(2):
            assert np.array_equal(got[owner], share_bundles(
                stack[owner], blinding[owner], num_shares))

    @given(words=st.lists(secrets, min_size=6, max_size=6), tn=t_of_n(),
           seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_opening_a_stack_is_opening_each_word(self, words, tn, seed):
        threshold, num_shares = tn
        blinding = np.random.default_rng(seed).integers(
            PRIME, size=(6, threshold - 1), dtype=np.uint64)
        shares = share_bundles(words, blinding, num_shares).reshape(
            2, 3, num_shares)
        xs = list(range(num_shares, num_shares - threshold, -1))
        opened = open_shares(shares[..., [x - 1 for x in xs]], xs)
        assert opened.shape == (2, 3)
        assert opened.ravel().tolist() == words

    @pytest.mark.parametrize("threshold", [1, 2, 5, 9])
    def test_field_edges_open_exactly(self, threshold):
        """The largest words and coefficients keep every limb product in
        range: ``PRIME - 1`` everywhere still opens to the word."""
        words = [0, 1, PRIME - 1]
        blinding = np.full((3, threshold - 1), PRIME - 1, dtype=np.uint64)
        shares = share_bundles(words, blinding, 9)
        xs = range(9 - threshold + 1, 10)
        assert open_shares(shares[:, 9 - threshold:], xs).tolist() == words


class TestSecrecy:
    @given(secret=secrets, seed=seeds,
           threshold=st.integers(min_value=2, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_below_threshold_shares_miss_the_secret(self, secret, seed,
                                                    threshold):
        """t-1 shares determine a lower-degree polynomial whose value at 0
        matches the secret only with probability 1/p (~4e-19): any seeded
        counterexample would be a genuine break of the scheme."""
        rng = np.random.default_rng(seed)
        shares = split_secret(secret, threshold + 1, threshold, rng)
        assert reconstruct_secret(shares[:threshold - 1]) != secret

    @given(secret=secrets, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_shares_are_randomized_per_split(self, secret, seed):
        """Two splits of one secret share no y-values (beyond chance): the
        blinding coefficients come from the caller's RNG stream."""
        a = split_secret(secret, 5, 3, np.random.default_rng(seed))
        b = split_secret(secret, 5, 3, np.random.default_rng(seed + 1))
        assert a != b
        # Both still open to the same secret, of course.
        assert reconstruct_secret(a[:3]) == reconstruct_secret(b[2:]) == secret


class TestValidation:
    def test_reconstruct_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="share"):
            reconstruct_secret([])
        shares = split_secret(5, 3, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="duplicate"):
            reconstruct_secret([shares[0], shares[0]])
        with pytest.raises(ValueError, match="share"):
            reconstruct_secret([(0, 5)])
