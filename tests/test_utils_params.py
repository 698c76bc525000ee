"""Tests for parameter flattening / aggregation utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.params import (
    ParamSpec,
    cosine_similarity_matrix,
    flatten_params,
    resolve_dtype,
    stack_params,
    weighted_average,
)
from tests.conftest import bank_of, bank_row


def make_params(rng, shapes=((3, 4), (4,), (2, 2, 2))):
    return [rng.normal(size=s) for s in shapes]


def cosine(a, b) -> float:
    """Cosine of two parameter lists, through the one pool-level kernel."""
    return float(cosine_similarity_matrix(
        np.stack([flatten_params(a), flatten_params(b)]))[0, 1])


class TestFlattenRoundtrip:
    def test_roundtrip_preserves_values(self, rng):
        params = make_params(rng)
        flat = flatten_params(params)
        restored = ParamSpec.of(params).view(flat)
        for a, b in zip(params, restored):
            assert np.allclose(a, b)

    def test_flat_length_is_total_size(self, rng):
        params = make_params(rng)
        assert flatten_params(params).size == sum(p.size for p in params)

    def test_empty_params(self):
        assert flatten_params([]).size == 0

    def test_spec_rejects_wrong_size_vector(self, rng):
        params = make_params(rng)
        spec = ParamSpec.of(params)
        with pytest.raises(ValueError):
            spec.view(np.zeros(spec.total_size + 1))

    def test_spec_sizes_are_computed_once(self, rng):
        import dataclasses
        import pickle
        spec = ParamSpec.of(make_params(rng) + [np.zeros(())])
        assert spec.sizes[-1] == 1 and spec.total_size == sum(spec.sizes)
        assert spec.sizes is spec.sizes  # a plain property builds a new tuple
        assert "total_size" in vars(spec)
        # Still a frozen value object: the cache is not part of its identity.
        fresh = ParamSpec(spec.shapes)
        assert fresh == spec and hash(fresh) == hash(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.shapes = ()

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, sizes):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(s,)) for s in sizes]
        flat = flatten_params(params)
        restored = ParamSpec.of(params).view(flat)
        assert all(np.allclose(a, b) for a, b in zip(params, restored))


class TestWeightedAverage:
    def test_equal_weights_is_mean(self, rng):
        a, b = make_params(rng), make_params(rng)
        avg = weighted_average([a, b], [1.0, 1.0])
        for x, y, z in zip(a, b, avg):
            assert np.allclose((x + y) / 2, z)

    def test_weights_normalize(self, rng):
        a, b = make_params(rng), make_params(rng)
        avg1 = weighted_average([a, b], [1.0, 3.0])
        avg2 = weighted_average([a, b], [10.0, 30.0])
        for x, y in zip(avg1, avg2):
            assert np.allclose(x, y)

    def test_single_set_identity(self, rng):
        a = make_params(rng)
        avg = weighted_average([a], [5.0])
        for x, y in zip(a, avg):
            assert np.allclose(x, y)

    def test_zero_total_weight_rejected(self, rng):
        a = make_params(rng)
        with pytest.raises(ValueError):
            weighted_average([a, a], [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([], [])

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_average([make_params(rng)], [1.0, 2.0])

    @given(st.floats(0.01, 10), st.floats(0.01, 10))
    @settings(max_examples=25, deadline=None)
    def test_convex_combination_bounds(self, w1, w2):
        rng = np.random.default_rng(1)
        a = [rng.normal(size=(4,))]
        b = [rng.normal(size=(4,))]
        avg = weighted_average([a, b], [w1, w2])[0]
        lo = np.minimum(a[0], b[0]) - 1e-12
        hi = np.maximum(a[0], b[0]) + 1e-12
        assert np.all(avg >= lo) and np.all(avg <= hi)


class TestZeroCopyPlane:
    def test_spec_view_aliases_vector(self, rng):
        params = make_params(rng)
        spec = ParamSpec.of(params)
        vector = flatten_params(params).copy()
        views = spec.view(vector)
        views[0][0, 0] = 123.0
        assert vector[0] == 123.0
        vector[-1] = -7.0
        assert views[-1].ravel()[-1] == -7.0

    def test_flatten_of_view_list_is_zero_copy(self, rng):
        params = make_params(rng)
        spec = ParamSpec.of(params)
        vector = flatten_params(params).copy()
        views = spec.view(vector)
        flat = flatten_params(views)
        assert flat is vector or flat.base is vector
        assert np.shares_memory(flat, vector)

    def test_flatten_of_plain_list_copies(self, rng):
        params = make_params(rng)
        flat = flatten_params(params)
        flat[0] = 999.0
        assert params[0].ravel()[0] != 999.0

    def test_stack_params_mismatch_names_offender(self, rng):
        good = make_params(rng)
        bad = make_params(rng, shapes=((3, 4), (5,), (2, 2, 2)))
        with pytest.raises(ValueError, match="party 7"):
            stack_params([good, bad], names=["party 3", "party 7"])

    def test_weighted_average_mismatch_reports_shapes(self, rng):
        good = make_params(rng)
        bad = make_params(rng, shapes=((2, 2),))
        with pytest.raises(ValueError, match=r"entry 1.*\(2, 2\)"):
            weighted_average([good, bad], [1.0, 1.0])

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
        sets = [make_params(rng) for _ in range(n)]
        return bank_of(sets, dtype=dtype), sets

    def test_rows_roundtrip_values(self, rng):
        bank, sets = self.make_bank(rng)
        for i, params in enumerate(sets):
            assert np.allclose(bank.row(i), flatten_params(params))

    def test_weighted_combine_matches_weighted_average(self, rng):
        bank, sets = self.make_bank(rng)
        weights = [1.0, 2.0, 3.0]
        combined = bank.weighted_combine(weights, [0, 1, 2])
        expected = weighted_average(sets, weights)
        assert np.allclose(combined, flatten_params(expected))

    def test_cosine_matrix_matches_pairwise(self, rng):
        bank, sets = self.make_bank(rng, n=4)
        sims = cosine_similarity_matrix(bank.matrix([0, 1, 2, 3]))
        for i in range(4):
            for j in range(4):
                a, b = flatten_params(sets[i]), flatten_params(sets[j])
                assert sims[i, j] == pytest.approx(
                    a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), abs=1e-12)

    def test_cosine_matrix_zero_row_conventions(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        sims = cosine_similarity_matrix(matrix)
        assert sims[0, 2] == 1.0  # zero vs zero
        assert sims[0, 1] == 0.0  # zero vs non-zero
        assert sims[1, 1] == pytest.approx(1.0)

    def test_alloc_release_recycles_slots(self, rng):
        bank, _sets = self.make_bank(rng)
        row = bank.alloc()
        bank.release(row)
        assert bank.alloc() == row  # slot recycled
        with pytest.raises(KeyError):
            bank.row(99)

    def test_matrix_pairs_rows_positionally_after_recycling(self, rng):
        bank, sets = self.make_bank(rng)
        bank.release(0)
        late = bank_row(bank, flatten_params(sets[2]))  # lands in slot 0
        assert late == 0
        # Explicit rows keep the caller's order, not slot order.
        picked = bank.matrix([1, 2, late])
        assert np.array_equal(picked[0], bank.row(1))
        assert np.array_equal(picked[2], bank.row(late))
        bank.release(1)
        with pytest.raises(KeyError):
            bank.matrix([0, 1])  # a dead row is refused, not read

    def test_row_lifecycle_guards_dead_rows(self, rng):
        bank, sets = self.make_bank(rng)
        extra = bank_row(bank, flatten_params(sets[1]))
        assert np.array_equal(bank.row(extra), bank.row(1))
        assert not np.array_equal(bank.row(extra), bank.row(0))
        bank.release(extra)
        with pytest.raises(KeyError):
            bank.row(extra)  # released, not merely out of range
        with pytest.raises(KeyError):
            bank.release(extra)  # a dead row cannot be released twice

    def test_growth_preserves_rows(self, rng):
        bank, sets = self.make_bank(rng)
        before = bank.matrix([0, 1, 2]).copy()
        for _ in range(64):  # force several buffer relocations
            bank.alloc()
        assert np.allclose(bank.matrix([0, 1, 2]), before)

    def test_matrix_contiguous_run_is_view(self, rng):
        bank, _sets = self.make_bank(rng)
        matrix = bank.matrix([0, 1, 2])
        assert np.shares_memory(matrix, bank.row(0))

    def test_bad_weights_rejected(self, rng):
        bank, _sets = self.make_bank(rng)
        with pytest.raises(ValueError):
            bank.weighted_combine([1.0, 2.0], [0, 1, 2])
        with pytest.raises(ValueError):
            bank.weighted_combine([0.0, 0.0, 0.0], [0, 1, 2])


class TestSimilarity:
    def test_cosine_self_is_one(self, rng):
        a = make_params(rng)
        assert cosine(a, a) == pytest.approx(1.0)

    def test_cosine_negation_is_minus_one(self, rng):
        a = make_params(rng)
        b = [-p for p in a]
        assert cosine(a, b) == pytest.approx(-1.0)

    def test_cosine_zero_vs_zero(self):
        z = [np.zeros(3)]
        assert cosine(z, z) == 1.0

    def test_cosine_zero_vs_nonzero(self, rng):
        z = [np.zeros(3)]
        a = [np.ones(3)]
        assert cosine(z, a) == 0.0

    @given(st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_cosine_scale_invariant(self, scale):
        rng = np.random.default_rng(2)
        a = [rng.normal(size=(6,))]
        b = [rng.normal(size=(6,))]
        s1 = cosine(a, b)
        s2 = cosine([scale * a[0]], b)
        assert s1 == pytest.approx(s2, abs=1e-9)
