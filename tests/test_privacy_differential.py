"""Differential tests: the privacy plane against the bodies it replaced.

``ref_seal_bits`` / ``ref_self_seal_bits`` are the previous mask draws
(``rng.integers`` over the full word range), ``ref_net_seal_bits`` the
previous per-party summation loop over all ``n - 1`` pair streams, and
``ref_split_secret`` / ``ref_reconstruct_secret`` the previous one-word Shamir
code, all kept verbatim.  The live session expands every pair stream once per
cohort, holds one net vector per still-sealed row, splits a party's whole
word bundle with one coefficient draw and interpolates with weights computed
once per quorum — modular integer arithmetic throughout, so every comparison
is exact.  The work pins at the end count the generators a session seeds and
fail at the parent, where each pair stream was expanded four times.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.federation.accounting import CommunicationLedger
from repro.federation.async_engine import FederationConfig, FederationEngine
from repro.privacy import secure_aggregation
from repro.privacy.secure_aggregation import (
    SHARE_BYTES,
    IncompleteSubmissionError,
    MaskingSpec,
    SecureAggregationSession,
    _uint_dtype,
    seal_bits,
    self_seal_bits,
)
from repro.privacy.shamir import (
    PRIME,
    lagrange_weights,
    reconstruct_secret,
    split_secret,
    split_secrets,
)
from repro.utils.params import ParamBank, ParamSpec, resolve_dtype
from repro.utils.rng import spawn_rng
from tests.conftest import bank_of, bank_row, make_context

# ---------------------------------------------------------------- Reference implementations


def ref_seal_bits(shared_seed, party_a, party_b, dim, dtype=None, context=()):
    low, high = sorted((party_a, party_b))
    udt = _uint_dtype(resolve_dtype(dtype))
    rng = spawn_rng(shared_seed, "seal-mask", *context, low, high)
    return rng.integers(0, 2 ** (8 * udt.itemsize), size=dim, dtype=udt)


def ref_self_seal_bits(shared_seed, party_id, dim, dtype=None, context=()):
    udt = _uint_dtype(resolve_dtype(dtype))
    rng = spawn_rng(shared_seed, "seal-self", *context, party_id)
    return rng.integers(0, 2 ** (8 * udt.itemsize), size=dim, dtype=udt)


def ref_net_seal_bits(self, party_id):
    self._check_party(party_id)
    dim = self.spec.total_size
    net = ref_self_seal_bits(self.shared_seed, party_id, dim,
                             dtype=self.dtype, context=self.context)
    for other in self.cohort:
        if other == party_id:
            continue
        bits = ref_seal_bits(self.shared_seed, party_id, other, dim,
                             dtype=self.dtype, context=self.context)
        if party_id < other:
            net += bits
        else:
            net -= bits
    return net


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


# ---------------------------------------------------------------- Strategies

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([1, 2, 5, 8, 33])
dtypes = st.sampled_from([np.float32, np.float64])
contexts = st.sampled_from([(), ("stream", "g", 4, (1, 2))])
# Unsorted, non-contiguous ids.
cohorts = st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                   max_size=8, unique=True)
edge_secrets = st.one_of(st.sampled_from([0, 1, PRIME - 1]),
                         st.integers(min_value=0, max_value=PRIME - 1))


@st.composite
def t_of_n(draw):
    threshold = draw(st.integers(min_value=1, max_value=5))
    return threshold, draw(st.integers(min_value=threshold, max_value=8))


def _session(cohort, dim, dtype, context, seed, threshold=None, ledger=None):
    return SecureAggregationSession(cohort, [(dim,)], shared_seed=seed,
                                    dtype=dtype, context=context,
                                    threshold=threshold, ledger=ledger)


# ---------------------------------------------------------------- Masks


class TestMaskDraws:
    @given(seed=seeds, dim=dims, dtype=dtypes, context=contexts)
    @settings(max_examples=40, deadline=None)
    def test_raw_draw_is_the_bounded_integer_draw(self, seed, dim, dtype,
                                                  context):
        got = seal_bits(seed, 9, 4, dim, dtype=dtype, context=context)
        ref = ref_seal_bits(seed, 9, 4, dim, dtype=dtype, context=context)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
        got = self_seal_bits(seed, 9, dim, dtype=dtype, context=context)
        ref = ref_self_seal_bits(seed, 9, dim, dtype=dtype, context=context)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [30_122, 30_121])
    def test_raw_draw_at_run_scale(self, dtype, dim):
        assert np.array_equal(seal_bits(3, 0, 1, dim, dtype=dtype),
                              ref_seal_bits(3, 0, 1, dim, dtype=dtype))


class TestNetMasks:
    @given(cohort=cohorts, dim=dims, dtype=dtypes, context=contexts,
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_every_net_mask_equals_the_reference_loop(self, cohort, dim,
                                                      dtype, context, seed):
        session = _session(cohort, dim, dtype, context, seed)
        for party_id in cohort:
            got = session.net_seal_bits(party_id)
            ref = ref_net_seal_bits(session, party_id)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @given(cohort=cohorts, dim=dims, dtype=dtypes, context=contexts,
           seed=seeds, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sealed_rows_are_byte_equal_in_any_seal_order(
            self, cohort, dim, dtype, context, seed, data):
        order = data.draw(st.permutations(cohort))
        session = _session(cohort, dim, dtype, context, seed)
        udt = _uint_dtype(dtype)
        rng = np.random.default_rng(seed)
        bank = ParamBank(ParamSpec(((dim,),)), dtype=dtype,
                         capacity=len(cohort))
        rows, originals, sealed = {}, {}, {}
        for party_id in order:
            rows[party_id] = bank_row(bank, rng.normal(size=dim).astype(dtype))
            originals[party_id] = bank.row(rows[party_id]).copy()
            session.seal_row(party_id, bank.row(rows[party_id]))
            sealed[party_id] = (originals[party_id].view(udt)
                                + ref_net_seal_bits(session, party_id))
            assert (bank.row(rows[party_id]).tobytes()
                    == sealed[party_id].tobytes())
        # Unseal -> re-seal -> unseal, one party at a time in another order:
        # the re-sealed bytes are the reference's again, the row comes back.
        for party_id in data.draw(st.permutations(cohort)):
            row = bank.row(rows[party_id])
            session.unseal_row(party_id, row)
            assert row.tobytes() == originals[party_id].tobytes()
            session.seal_row(party_id, row)
            assert row.tobytes() == sealed[party_id].tobytes()
        for party_id in order:
            session.unseal_row(party_id, bank.row(rows[party_id]))
            assert (bank.row(rows[party_id]).tobytes()
                    == originals[party_id].tobytes())
        assert session._nets == {}


# ---------------------------------------------------------------- Shamir


class TestBatchedSplit:
    @given(secrets=st.lists(edge_secrets, min_size=1, max_size=6), tn=t_of_n(),
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_any_t_shares_open_every_word_and_fewer_do_not(self, secrets, tn,
                                                           seed):
        threshold, num_shares = tn
        rows = split_secrets(secrets, num_shares, threshold,
                             np.random.default_rng(seed))
        assert len(rows) == len(secrets)
        rng = np.random.default_rng(seed + 1)
        for secret, values in zip(secrets, rows):
            shares = list(enumerate(values, start=1))
            assert len(shares) == num_shares
            for start in range(num_shares - threshold + 1):
                window = shares[start:start + threshold]
                assert ref_reconstruct_secret(window) == secret
            subset = [shares[i]
                      for i in rng.permutation(num_shares)[:threshold]]
            assert ref_reconstruct_secret(subset) == secret
            if threshold > 1:
                # t - 1 shares hit the secret only with probability 1 / p.
                assert ref_reconstruct_secret(shares[:threshold - 1]) != secret

    @given(secret=edge_secrets, tn=t_of_n(), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_one_word_call_equals_the_reference(self, secret, tn, seed):
        threshold, num_shares = tn
        got = split_secret(secret, num_shares, threshold,
                           np.random.default_rng(seed))
        ref = ref_split_secret(secret, num_shares, threshold,
                               np.random.default_rng(seed))
        assert got == ref

    def test_batched_split_validates_every_word(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="secret"):
            split_secrets([5, PRIME], 3, 2, rng)
        with pytest.raises(ValueError, match="threshold"):
            split_secrets([5, 6], 2, 3, rng)
        assert split_secrets([], 3, 2, rng) == []

    @given(cohort=cohorts, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_share_matrix_is_deterministic_and_context_bound(self, cohort,
                                                             seed):
        threshold = min(2, len(cohort))

        def shares(context):
            return _session(cohort, 3, np.float32, context, seed,
                            threshold=threshold)._shares

        assert shares(("a", 1)) == shares(("a", 1))
        if threshold > 1:  # t = 1 shares are the (context-bound) words
            assert shares(("a", 1)) != shares(("a", 2))


class TestHoistedWeights:
    @given(secret=edge_secrets, seed=seeds,
           xs=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                       max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_weighted_sum_equals_reference_reconstruction(self, secret, seed,
                                                          xs):
        """Any quorum (unsorted x-coordinates), including the field's edge
        secrets: the weights at zero open exactly what the per-word Lagrange
        loop opened."""
        values = split_secret(secret, 40, len(xs),
                              np.random.default_rng(seed))
        shares = [values[x - 1] for x in xs]
        weights = lagrange_weights(xs)
        assert all(0 <= w < PRIME for w in weights)
        opened = sum(y * w for (_, y), w in zip(shares, weights)) % PRIME
        assert opened == ref_reconstruct_secret(shares) == secret
        assert reconstruct_secret(shares) == secret

    def test_weights_carry_the_reconstruction_validation(self):
        with pytest.raises(ValueError, match="zero shares"):
            lagrange_weights([])
        with pytest.raises(ValueError, match="x-coordinates"):
            lagrange_weights([0, 1])
        with pytest.raises(ValueError, match="x-coordinates"):
            lagrange_weights([1, PRIME])
        with pytest.raises(ValueError, match="duplicate"):
            lagrange_weights([2, 3, 2])


class TestRecoveryGate:
    def _sealed(self, ledger=None):
        spec = ParamSpec(((6,),))
        session = SecureAggregationSession([4, 0, 9, 2], spec, shared_seed=3,
                                           threshold=3, ledger=ledger)
        bank = ParamBank(spec, capacity=4)
        party_rows = []
        for party_id in session.cohort:
            row = bank_row(bank, np.full(6, party_id + 0.5))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        return session, bank, party_rows

    def test_corrupt_share_is_caught_before_anything_is_unsealed(self):
        session, bank, party_rows = self._sealed()
        rows = [row for _party, row in party_rows]
        sealed = bank.matrix(rows).copy()
        session._shares[9]["self", 9][0] ^= 1
        with pytest.raises(RuntimeError, match="corrupt"):
            session.combine_rows(bank, np.ones(4), party_rows)
        assert np.array_equal(bank.matrix(rows).view(np.uint64),
                              sealed.view(np.uint64))
        assert all(session.is_sealed(p) for p in session.cohort)
        assert not session.is_recovered(9)

    def test_any_quorum_of_available_holders_recovers(self):
        ledger = CommunicationLedger()
        session, _, _ = self._sealed(ledger)
        base = ledger.downlink_bytes
        # The first t available holders in cohort order answer: 2, 4, 9.
        session.recover([0], available=[9, 4, 2])
        assert session.is_recovered(0)
        assert ledger.downlink_bytes == base + 4 * 3 * SHARE_BYTES
        with pytest.raises(IncompleteSubmissionError, match="refusing"):
            session.recover([4], available=[9, 77, 2])
        assert not session.is_recovered(4)


# ---------------------------------------------------------------- Work pins


@pytest.fixture
def seeded(monkeypatch):
    """Count the generators the session module seeds, by stream label."""
    counts = Counter()

    def counting_spawn(root_seed, *labels):
        counts[labels[0]] += 1
        return spawn_rng(root_seed, *labels)

    monkeypatch.setattr(secure_aggregation, "spawn_rng", counting_spawn)
    return counts


class TestWorkPins:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_a_session_expands_each_stream_once(self, seeded, n):
        spec = ParamSpec(((7,),))
        cohort = [3 * i + 1 for i in range(n)]
        session = SecureAggregationSession(cohort, spec, shared_seed=1,
                                           threshold=min(3, n))
        pairs = n * (n - 1) // 2
        assert seeded == +Counter({"share-secret-self": n,
                                   "share-secret-pair": pairs,
                                   "share-split": n})
        bank = ParamBank(spec, capacity=n)
        party_rows = []
        for party_id in cohort:
            row = bank_row(bank, np.full(7, float(party_id)))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        plain = bank_of(
            [[np.full(7, float(party_id))] for party_id in cohort])
        got = session.combine_rows(bank, np.ones(n), party_rows)
        assert np.array_equal(
            got, plain.weighted_combine(np.ones(n), list(range(n))))
        assert seeded["seal-mask"] == pairs      # the parent: 4 * pairs
        assert seeded["seal-self"] == n          # the parent: 2 * n
        assert seeded["share-split"] == n        # the parent: n * n
        assert seeded["share-secret-pair"] == pairs
        assert seeded["share-secret-self"] == n
        # Every net mask was consumed by its unseal.
        assert session._nets == {}

    def test_a_member_that_never_seals_leaves_no_net_behind(self, seeded):
        """The round hook skips zero-sample reports: their cohort member has
        pair streams with everyone but never seals a row."""
        spec = ParamSpec(((5,),))
        session = SecureAggregationSession([0, 1, 2, 3], spec)
        bank = ParamBank(spec, capacity=3)
        party_rows = []
        for party_id in (0, 1, 3):
            row = bank_row(bank, np.full(5, 1.0 + party_id))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        session.combine_rows(bank, np.ones(1), party_rows[:1])
        assert sorted(session._nets) == [1, 3]
        session.combine_rows(bank, np.ones(2), party_rows[1:])
        assert session._nets == {}
        assert seeded["seal-mask"] == 6 and seeded["seal-self"] == 4

    def test_reseal_after_unseal_rebuilds_only_that_net(self, seeded):
        spec = ParamSpec(((5,),))
        session = SecureAggregationSession([0, 1, 2, 3], spec)
        rows = {p: np.full(5, 1.0 + p) for p in session.cohort}
        for party_id, row in rows.items():
            session.seal_row(party_id, row)
        first = rows[2].copy()
        session.unseal_row(2, rows[2])
        assert np.array_equal(rows[2], np.full(5, 3.0))
        before = +seeded
        session.seal_row(2, rows[2])
        assert rows[2].tobytes() == first.tobytes()
        assert seeded - before == {"seal-mask": 3, "seal-self": 1}
        assert sorted(session._nets) == [0, 1, 2, 3]

    def test_unseal_expands_no_stream(self, seeded):
        spec = ParamSpec(((5,),))
        session = SecureAggregationSession([0, 1, 2], spec)
        rows = {p: np.full(5, 1.0 + p) for p in session.cohort}
        for party_id, row in rows.items():
            session.seal_row(party_id, row)
        before = +seeded
        for party_id, row in rows.items():
            session.unseal_row(party_id, row)
        assert seeded == before

    def test_window_flush_frees_the_masks_of_expired_reports(
            self, tiny_spec, tiny_dataset, seeded):
        """Reports stranded at a window boundary die sealed, and their
        session — the only holder of their net masks — dies with them:
        nothing is reconstructed, nothing is left held."""
        engine = FederationEngine(
            FederationConfig(mode="buffered", min_reports=99,
                             max_wait_rounds=99), seed=0, num_parties=8)
        ctx = make_context(tiny_spec, tiny_dataset)
        engine.advance()
        _, stats = engine.run_round(ctx.parties, [0, 1, 2, 3],
                                    ctx.model_factory().get_params(),
                                    ctx.round_config, round_tag=(0, 0),
                                    stream="g",
                                    secure=MaskingSpec(11, threshold=3))
        assert not stats.aggregated
        sessions = {id(r.session): weakref.ref(r.session)
                    for r in engine._buffers["g"]._pending}
        (ref,) = sessions.values()
        assert len(ref()._nets) == 4
        drawn = +seeded
        assert engine.begin_window(1) == 4
        gc.collect()
        assert ref() is None
        assert seeded == drawn
