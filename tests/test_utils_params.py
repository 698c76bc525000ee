"""Tests for the parameter plane: flat-vector banks and similarity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.params import ParamBank, cosine_similarity_matrix, resolve_dtype
from tests.conftest import bank_of, bank_row

DIM = 3 * 4 + 4 + 2 * 2 * 2


def make_vector(rng, dim=DIM):
    return rng.normal(size=dim)


def cosine(a, b) -> float:
    """Cosine of two flat vectors, through the one pool-level kernel."""
    return float(cosine_similarity_matrix(np.stack([a, b]))[0, 1])


def combine(vectors, weights):
    """FedAvg of ``vectors`` through the bank kernel."""
    return bank_of(vectors).weighted_combine(weights, list(range(len(vectors))))


class TestWeightedCombine:
    def test_equal_weights_is_mean(self, rng):
        a, b = make_vector(rng), make_vector(rng)
        assert np.allclose(combine([a, b], [1.0, 1.0]), (a + b) / 2)

    def test_weights_normalize(self, rng):
        a, b = make_vector(rng), make_vector(rng)
        assert np.allclose(combine([a, b], [1.0, 3.0]),
                           combine([a, b], [10.0, 30.0]))

    def test_single_set_identity(self, rng):
        a = make_vector(rng)
        assert np.allclose(combine([a], [5.0]), a)

    def test_zero_total_weight_rejected(self, rng):
        a = make_vector(rng)
        with pytest.raises(ValueError, match="positive"):
            combine([a, a], [0.0, 0.0])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            ParamBank(DIM).weighted_combine([], [])

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError, match="does not match 1 rows"):
            combine([make_vector(rng)], [1.0, 2.0])

    @given(st.floats(0.01, 10), st.floats(0.01, 10))
    @settings(max_examples=25, deadline=None)
    def test_convex_combination_bounds(self, w1, w2):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=4), rng.normal(size=4)
        avg = combine([a, b], [w1, w2])
        assert np.all(avg >= np.minimum(a, b) - 1e-12)
        assert np.all(avg <= np.maximum(a, b) + 1e-12)


class TestDtype:
    def test_resolve_dtype_rejects_non_float(self):
        with pytest.raises(ValueError):
            resolve_dtype(np.int32)

    def test_resolve_dtype_rejects_unknown_name(self):
        # np.dtype raises TypeError here; the knob surfaces ValueError so
        # CLI error handling stays uniform (exit 2, one-line stderr).
        with pytest.raises(ValueError, match="bogus"):
            resolve_dtype("bogus")


class TestParamBank:
    def make_bank(self, rng, n=3, dtype=None):
        vectors = [make_vector(rng) for _ in range(n)]
        return bank_of(vectors, dtype=dtype), vectors

    def test_rows_hold_the_vectors(self, rng):
        bank, vectors = self.make_bank(rng)
        assert bank.dim == DIM
        for i, vector in enumerate(vectors):
            assert np.array_equal(bank.row(i), vector)

    def test_rows_have_the_bank_dim_and_dtype(self):
        bank = ParamBank(5, dtype="float32", capacity=1)
        row = bank.row(bank.alloc())
        assert row.shape == (5,) and row.dtype == np.float32
        assert not row.any()
        with pytest.raises(ValueError):
            row[...] = np.ones(6)  # a vector of another size does not fit

    @pytest.mark.parametrize("dim", [-1, 2.5, "8"])
    def test_dim_must_be_a_non_negative_int(self, dim):
        with pytest.raises((ValueError, TypeError)):
            ParamBank(dim)

    def test_weighted_combine_is_the_weighted_mean(self, rng):
        bank, vectors = self.make_bank(rng)
        weights = [1.0, 2.0, 3.0]
        combined = bank.weighted_combine(weights, [0, 1, 2])
        expected = sum(w * v for w, v in zip(weights, vectors)) / 6.0
        assert np.allclose(combined, expected)

    def test_cosine_matrix_matches_pairwise(self, rng):
        bank, vectors = self.make_bank(rng, n=4)
        sims = cosine_similarity_matrix(bank.matrix([0, 1, 2, 3]))
        for i in range(4):
            for j in range(4):
                a, b = vectors[i], vectors[j]
                assert sims[i, j] == pytest.approx(
                    a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), abs=1e-12)

    def test_cosine_matrix_zero_row_conventions(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        sims = cosine_similarity_matrix(matrix)
        assert sims[0, 2] == 1.0  # zero vs zero
        assert sims[0, 1] == 0.0  # zero vs non-zero
        assert sims[1, 1] == pytest.approx(1.0)

    def test_alloc_release_recycles_slots(self, rng):
        bank, _vectors = self.make_bank(rng)
        row = bank.alloc()
        bank.release(row)
        assert bank.alloc() == row  # slot recycled
        with pytest.raises(KeyError):
            bank.row(99)

    def test_matrix_pairs_rows_positionally_after_recycling(self, rng):
        bank, vectors = self.make_bank(rng)
        bank.release(0)
        late = bank_row(bank, vectors[2])  # lands in slot 0
        assert late == 0
        # Explicit rows keep the caller's order, not slot order.
        picked = bank.matrix([1, 2, late])
        assert np.array_equal(picked[0], bank.row(1))
        assert np.array_equal(picked[2], bank.row(late))
        bank.release(1)
        with pytest.raises(KeyError):
            bank.matrix([0, 1])  # a dead row is refused, not read

    def test_row_lifecycle_guards_dead_rows(self, rng):
        bank, vectors = self.make_bank(rng)
        extra = bank_row(bank, vectors[1])
        assert np.array_equal(bank.row(extra), bank.row(1))
        assert not np.array_equal(bank.row(extra), bank.row(0))
        bank.release(extra)
        with pytest.raises(KeyError):
            bank.row(extra)  # released, not merely out of range
        with pytest.raises(KeyError):
            bank.release(extra)  # a dead row cannot be released twice

    def test_growth_preserves_rows(self, rng):
        bank, _vectors = self.make_bank(rng)
        before = bank.matrix([0, 1, 2]).copy()
        for _ in range(64):  # force several buffer relocations
            bank.alloc()
        assert np.allclose(bank.matrix([0, 1, 2]), before)

    def test_matrix_contiguous_run_is_view(self, rng):
        bank, _vectors = self.make_bank(rng)
        matrix = bank.matrix([0, 1, 2])
        assert np.shares_memory(matrix, bank.row(0))

    def test_bad_weights_rejected(self, rng):
        bank, _vectors = self.make_bank(rng)
        with pytest.raises(ValueError):
            bank.weighted_combine([1.0, 2.0], [0, 1, 2])
        with pytest.raises(ValueError):
            bank.weighted_combine([0.0, 0.0, 0.0], [0, 1, 2])


class TestSimilarity:
    def test_cosine_self_is_one(self, rng):
        a = make_vector(rng)
        assert cosine(a, a) == pytest.approx(1.0)

    def test_cosine_negation_is_minus_one(self, rng):
        a = make_vector(rng)
        assert cosine(a, -a) == pytest.approx(-1.0)

    def test_cosine_zero_vs_zero(self):
        z = np.zeros(3)
        assert cosine(z, z) == 1.0

    def test_cosine_zero_vs_nonzero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    @given(st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_cosine_scale_invariant(self, scale):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert cosine(a, b) == pytest.approx(cosine(scale * a, b), abs=1e-9)
