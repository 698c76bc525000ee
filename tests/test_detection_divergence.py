"""Tests for the Jensen-Shannon divergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.reference import ref_jsd
from repro.detection.divergence import jsd, jsd_many
from repro.utils.rng import spawn_rng


def normalize(v):
    arr = np.asarray(v, dtype=float)
    return arr / arr.sum()


class TestJsd:
    def test_identical_is_zero(self):
        p = normalize([1, 2, 3, 4])
        assert jsd(p, p) == pytest.approx(0.0)

    def test_disjoint_support_is_log2(self):
        assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == \
            pytest.approx(np.log(2))

    def test_symmetric(self):
        p = normalize([5, 2, 1])
        q = normalize([1, 2, 5])
        assert jsd(p, q) == pytest.approx(jsd(q, p))

    def test_bounded(self):
        p = normalize([10, 1, 1])
        q = normalize([1, 1, 10])
        assert 0.0 <= jsd(p, q) <= np.log(2.0)

    def test_finite_for_partial_overlap(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        value = jsd(p, q)
        assert np.isfinite(value)
        assert 0 < value < np.log(2)

    def test_more_different_is_larger(self):
        base = normalize([4, 4, 4])
        near = normalize([5, 4, 3])
        far = normalize([10, 1, 1])
        assert jsd(base, near) < jsd(base, far)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            jsd(np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            jsd(normalize([1, 1]), normalize([1, 1, 1]))

    @given(st.lists(st.floats(0.01, 10), min_size=2, max_size=8),
           st.lists(st.floats(0.01, 10), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_jsd_properties(self, raw_p, raw_q):
        n = min(len(raw_p), len(raw_q))
        p = normalize(raw_p[:n])
        q = normalize(raw_q[:n])
        value = jsd(p, q)
        assert 0.0 <= value <= np.log(2) + 1e-12
        assert value == pytest.approx(jsd(q, p), abs=1e-10)


def sparse_rows(rng, rows, classes):
    """Probability rows of every support size 1 ... ``classes``, some zeros
    written as tiny negatives in ``[-1e-12, 0)`` that validation clips."""
    out = np.zeros((rows, classes))
    for row in out:
        support = rng.choice(classes, size=int(rng.integers(1, classes + 1)),
                             replace=False)
        row[support] = rng.dirichlet(np.full(len(support), 0.5))
    zeros = out == 0
    out[zeros & (rng.random(out.shape) < 0.3)] = -rng.uniform(1e-15, 1e-12)
    return out


class TestJsdMany:
    """The stacked JSD, and ``jsd`` as its one-row case, are the previous
    ``jsd`` (``benchmarks/reference.py``) row by row, bit for bit."""

    @given(st.integers(0, 2 ** 31), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_jsd_bytes(self, seed, rows, classes):
        rng = spawn_rng(seed, "jsd-many")
        ps, qs = sparse_rows(rng, rows, classes), sparse_rows(rng, rows, classes)
        if rows > 1:
            qs[-1] = ps[-1]  # an exact zero
        expected = np.array([ref_jsd(p, q) for p, q in zip(ps, qs)])
        assert jsd_many(ps, qs).tobytes() == expected.tobytes()
        assert np.array([jsd(p, q) for p, q in zip(ps, qs)]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side", ["p", "q"])
    @pytest.mark.parametrize("bad, message", [
        (np.array([0.6, 0.6, -0.2]), "has negative entries"),
        (np.array([0.5, 0.25, 0.125]), "must sum to 1; sums to 0.875"),
        (np.array([np.nan, 0.5, 0.5]), "must sum to 1; sums to nan"),
    ])
    def test_errors_name_the_row(self, side, bad, message):
        good = np.full((4, 3), 1 / 3)
        broken = good.copy()
        broken[2] = bad
        args = (broken, good) if side == "p" else (good, broken)
        for scalar in (jsd, ref_jsd):
            with pytest.raises(ValueError, match=f"^{side} {message}"):
                scalar(*(row[2] for row in args))
        with pytest.raises(ValueError, match=f"^{side} row 2 {message}"):
            jsd_many(*args)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            jsd_many(np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError, match="must be 2-D"):
            jsd_many(np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert jsd_many(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)
