"""Differential tests: the privacy plane against the bodies it replaced.

The references live in ``benchmarks/reference.py``.
``ref_self_seal_bits`` restates the mask derivation from its definition: the
stream's seed word is a keyed BLAKE2b digest of (mask root, context, stream
key) reduced into GF(2^61 - 1), a digest of the word restates a PCG64
(``ref_restated_rng``, which also keys each owner's share blinding), and
``rng.integers`` draws the full word range.  ``ref_net_mask`` is a member's
personal stream (a live net mask is read as the bytes sealing a zero row
adds), and ``ref_split_secret`` / ``ref_reconstruct_secret`` the previous
one-word Shamir code, kept verbatim; ``ref_split_secrets`` evaluates a
bundle the Python-int way on one block draw of blinding coefficients.  The
live session derives one word per member at construction, expands a
member's stream at its seal, holds one net vector per still-sealed row, lets
each member seal once and unseal only once recovered, shares every member's
word in one Horner pass over an ``(owners, holders)`` array, and opens every
pending word of a quorum in one pass — modular integer arithmetic
throughout, so every comparison is exact.  The work pins at the end count
the words a session derives, the streams it expands and the seed sequences
it builds: one per session, none per stream or bundle.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benchmarks.reference import (
    ref_net_mask,
    ref_reconstruct_secret,
    ref_restated_rng,
    ref_self_seal_bits,
    ref_split_secret,
    ref_split_secrets,
    ref_stream_bits,
    ref_stream_word,
)
from repro.federation.accounting import CommunicationLedger
from repro.federation.async_engine import FederationConfig, FederationEngine
from repro.privacy import secure_aggregation, shamir
from repro.privacy.secure_aggregation import (
    SHARE_BYTES,
    IncompleteSubmissionError,
    MaskingSpec,
    SecureAggregationSession,
    _uint_dtype,
)
from repro.privacy.shamir import PRIME, lagrange_weights, open_shares, share_bundles
from repro.utils.params import ParamBank
from tests.conftest import bank_of, bank_row, make_context, sealed_net


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


def _stream_bits(shared_seed, key, dim, dtype, context):
    """The live derivation of one stream: its word, then its expansion."""
    word = secure_aggregation._stream_word(shared_seed, context, key)
    return secure_aggregation._expand_word(secure_aggregation._stream_rng(),
                                           word, dim, dtype)


def _split(secrets, num_shares, threshold, rng):
    """The live share pass on one block draw of blinding coefficients."""
    blinding = rng.integers(PRIME, size=(len(secrets), threshold - 1))
    return share_bundles(secrets, blinding, num_shares).tolist()


def _session(cohort, dim, dtype, context, seed, threshold=None, ledger=None):
    return SecureAggregationSession(cohort, dim, shared_seed=seed,
                                    dtype=dtype, context=context,
                                    threshold=threshold, ledger=ledger)


# ---------------------------------------------------------------- Masks


class TestMaskDraws:
    @given(seed=seeds, dim=dims, dtype=dtypes, context=contexts)
    @settings(max_examples=40, deadline=None)
    def test_raw_draw_is_the_bounded_integer_draw(self, seed, dim, dtype,
                                                  context):
        got = _stream_bits(seed, ("self", 9), dim, dtype, context)
        ref = ref_self_seal_bits(seed, 9, dim, dtype=dtype, context=context)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [30_122, 30_121])
    def test_raw_draw_at_run_scale(self, dtype, dim):
        assert np.array_equal(_stream_bits(3, ("self", 0), dim, dtype, ()),
                              ref_self_seal_bits(3, 0, dim, dtype=dtype))


# async_masked's dispatch: 12 parties, unsorted and non-contiguous ids.
TWELVE = [3 * i + 2 for i in reversed(range(12))]


class TestNetMasks:
    @given(cohort=cohorts, dim=dims, dtype=dtypes, context=contexts,
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    @example(cohort=TWELVE, dim=33, dtype=np.float32,
             context=("stream", "g", 4, (1, 2)), seed=12)
    @example(cohort=TWELVE, dim=8, dtype=np.float64, context=(), seed=2**32 - 1)
    def test_every_net_mask_is_the_personal_stream(self, cohort, dim, dtype,
                                                   context, seed):
        session = _session(cohort, dim, dtype, context, seed)
        for party_id in cohort:
            got = sealed_net(session, party_id)
            ref = ref_net_mask(session, party_id)
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
        bank = ParamBank(dim, dtype=dtype, capacity=len(cohort))
        rows, originals, sealed = {}, {}, {}
        for party_id in order:
            rows[party_id] = bank_row(bank, rng.normal(size=dim).astype(dtype))
            originals[party_id] = bank.row(rows[party_id]).copy()
            session.seal_row(party_id, bank.row(rows[party_id]))
            sealed[party_id] = (originals[party_id].view(udt)
                                + ref_net_mask(session, party_id))
            assert (bank.row(rows[party_id]).tobytes()
                    == sealed[party_id].tobytes())
        # Unseal one party at a time in another order: each row comes back.
        for party_id in data.draw(st.permutations(cohort)):
            session.unseal_row(party_id, bank.row(rows[party_id]))
            assert (bank.row(rows[party_id]).tobytes()
                    == originals[party_id].tobytes())
        assert session._nets == {}

    @given(cohort=cohorts, dim=dims, dtype=dtypes, context=contexts,
           seed=seeds, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_recovered_words_re_expand_the_held_nets(self, cohort, dim, dtype,
                                                     context, seed, data):
        """A word is its stream's seed: after ``recover``, the word the
        quorum's shares open re-expands to the party's held net byte for
        byte."""
        threshold = data.draw(st.integers(min_value=1,
                                          max_value=len(cohort)))
        session = _session(cohort, dim, dtype, context, seed,
                           threshold=threshold)
        for party_id in cohort:
            session.seal_row(party_id, np.zeros(dim, dtype=dtype))
        quorum = range(1, threshold + 1)
        for i, party_id in enumerate(session.cohort):
            session.recover([party_id])
            values = session._shares[i].tolist()
            word = ref_reconstruct_secret((x, values[x - 1]) for x in quorum)
            net = ref_stream_bits(word, dim, dtype)
            assert net.tobytes() == session._nets[party_id].tobytes()


# ---------------------------------------------------------------- Shamir


class TestBatchedSplit:
    @given(secrets=st.lists(edge_secrets, min_size=1, max_size=6), tn=t_of_n(),
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_any_t_shares_open_every_word_and_fewer_do_not(self, secrets, tn,
                                                           seed):
        threshold, num_shares = tn
        rows = _split(secrets, num_shares, threshold,
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
        (got,) = _split([secret], num_shares, threshold,
                        np.random.default_rng(seed))
        ref = ref_split_secret(secret, num_shares, threshold,
                               np.random.default_rng(seed))
        assert list(enumerate(got, start=1)) == ref

    @given(secrets=st.lists(edge_secrets, min_size=1, max_size=6),
           seed=seeds, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorised_horner_equals_the_python_int_evaluation(
            self, secrets, seed, data):
        num_shares = data.draw(st.integers(min_value=1, max_value=64))
        threshold = data.draw(st.integers(min_value=1, max_value=num_shares))
        got = _split(secrets, num_shares, threshold,
                     np.random.default_rng(seed))
        assert got == ref_split_secrets(secrets, num_shares, threshold,
                                        np.random.default_rng(seed))

    @pytest.mark.parametrize("num_shares", [1, 2, 12, 64])
    def test_vectorised_horner_at_every_threshold(self, num_shares):
        secrets = [0, 1, PRIME - 1]
        for threshold in range(1, num_shares + 1):
            got = _split(secrets, num_shares, threshold,
                         np.random.default_rng(threshold))
            assert got == ref_split_secrets(secrets, num_shares, threshold,
                                            np.random.default_rng(threshold))
            for secret in secrets:
                (values,) = _split([secret], num_shares, threshold,
                                   np.random.default_rng(threshold))
                assert list(enumerate(values, start=1)) == ref_split_secret(
                    secret, num_shares, threshold,
                    np.random.default_rng(threshold))

    @given(a=st.lists(edge_secrets, min_size=1, max_size=8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_limb_step_is_the_field_step(self, a, data):
        """Shares only multiply by ``x <= n``; the limb Horner step must
        hold for any field elements, high limbs included."""
        b, c = (data.draw(st.lists(edge_secrets, min_size=len(a),
                                   max_size=len(a))) for _ in range(2))
        got = shamir._mul_add_mod(*(np.array(v, dtype=np.uint64)
                                    for v in (a, b, c)))
        assert got.tolist() == [(x * y + z) % PRIME
                                for x, y, z in zip(a, b, c)]

    @given(cohort=cohorts, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_share_matrix_is_deterministic_and_context_bound(self, cohort,
                                                             seed):
        threshold = min(2, len(cohort))

        def shares(context):
            return _session(cohort, 3, np.float32, context, seed,
                            threshold=threshold)._shares

        assert np.array_equal(shares(("a", 1)), shares(("a", 1)))
        if threshold > 1:  # t = 1 shares are the (context-bound) words
            assert not np.array_equal(shares(("a", 1)), shares(("a", 2)))

    @given(cohort=st.lists(st.integers(min_value=0, max_value=60),
                           min_size=1, max_size=12, unique=True),
           dtype=dtypes, context=contexts, seed=seeds, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_session_shares_and_openings_equal_the_per_owner_reference(
            self, cohort, dtype, context, seed, data):
        """Every owner's shares are ``ref_split_secrets`` of its one-word
        bundle on its own restated stream, and a random (generally
        non-prefix) quorum of ``available`` holders opens every word to
        ``ref_reconstruct_secret``'s, which is the derived one."""
        n = len(cohort)
        threshold = data.draw(st.integers(min_value=1, max_value=n))
        session = _session(cohort, 3, dtype, context, seed,
                           threshold=threshold)
        assert session._shares.shape == (n, n)
        for i, owner in enumerate(session.cohort):
            bundle = [ref_stream_word(seed, context, ("self", owner))]
            assert int(session._words[i]) == bundle[0]
            ref = ref_split_secrets(bundle, n, threshold, ref_restated_rng(
                ref_stream_word(seed, context, ("share", owner))))
            assert (np.array(ref, dtype=np.uint64).tobytes()
                    == session._shares[i].tobytes())
        available = data.draw(st.lists(st.sampled_from(cohort),
                                       min_size=threshold, unique=True))
        quorum = [k for k, p in enumerate(session.cohort)
                  if p in available][:threshold]
        xs = [k + 1 for k in quorum]
        opened = open_shares(session._shares[:, quorum], xs)
        assert opened.tolist() == [
            ref_reconstruct_secret(zip(xs, values))
            for values in session._shares[:, quorum].tolist()]
        assert np.array_equal(opened, session._words)
        session.recover(data.draw(st.permutations(cohort)), available=available)
        assert all(session.is_recovered(p) for p in cohort)


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
        values = ref_split_secret(secret, 40, len(xs),
                                  np.random.default_rng(seed))
        shares = [values[x - 1] for x in xs]
        weights = lagrange_weights(xs)
        assert all(0 <= w < PRIME for w in weights)
        opened = sum(y * w for (_, y), w in zip(shares, weights)) % PRIME
        assert opened == ref_reconstruct_secret(shares) == secret
        ys = np.array([[y for _, y in shares]], dtype=np.uint64)
        assert open_shares(ys, xs).tolist() == [secret]

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
        dim = 6
        session = SecureAggregationSession([4, 0, 9, 2], dim, shared_seed=3,
                                           threshold=3, ledger=ledger)
        bank = ParamBank(dim, capacity=4)
        party_rows = []
        for party_id in session.cohort:
            row = bank_row(bank, np.full(6, party_id + 0.5))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        return session, bank, party_rows

    @pytest.mark.parametrize("threshold", [None, 1, 3, "majority"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_twelve_party_dispatch(self, dtype, threshold):
        """The masked aggregate of a 12-party dispatch is plain
        ``weighted_combine``'s bytes; t - 1 holders recover and mark nothing;
        the last t holders (a non-prefix quorum) open every member's word,
        which is the derived one and re-expands to the party's held net."""
        n, dim, context = len(TWELVE), 37 * 3 + 9, ("stream", "global", 7, (1, 3))
        updates = [np.random.default_rng(p).normal(size=dim).astype(dtype)
                   for p in TWELVE]
        weights = np.arange(1.0, n + 1)
        expected = bank_of(updates, dtype=dtype).weighted_combine(weights,
                                                                  list(range(n)))
        session = _session(TWELVE, dim, dtype, context, n, threshold)
        bank = ParamBank(dim, dtype=dtype, capacity=n)
        party_rows = []
        for party_id, update in zip(TWELVE, updates):
            row = bank_row(bank, update)
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        if threshold is not None:
            t, ranked = session.threshold, session.cohort
            with pytest.raises(IncompleteSubmissionError):
                session.recover(TWELVE, available=ranked[:t - 1])
            assert all(session.is_sealed(p) and not session.is_recovered(p)
                       for p in TWELVE)
            session.recover(TWELVE, available=ranked[n - t:])
            xs = range(n - t + 1, n + 1)
            for i, party_id in enumerate(ranked):
                values = session._shares[i].tolist()
                word = ref_reconstruct_secret(zip(xs, values[n - t:]))
                assert word == ref_stream_word(n, context, ("self", party_id))
                net = ref_stream_bits(word, dim, dtype)
                assert net.tobytes() == session._nets[party_id].tobytes()
        got = session.combine_rows(bank, weights, party_rows)
        assert got.tobytes() == expected.tobytes()

    def test_corrupt_share_is_caught_before_anything_is_unsealed(self):
        session, bank, party_rows = self._sealed()
        rows = [row for _party, row in party_rows]
        sealed = bank.matrix(rows).copy()
        session._shares[3, 0] ^= np.uint64(1)  # party 9's word, x = 1
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
        assert ledger.downlink_bytes == base + 3 * SHARE_BYTES
        with pytest.raises(IncompleteSubmissionError, match="refusing"):
            session.recover([4], available=[9, 77, 2])
        assert not session.is_recovered(4)

    def test_recovery_is_all_or_nothing(self):
        """A corrupt share in a later party's bundle marks and meters no
        earlier party; the clean recovery afterwards meters exactly once."""
        ledger = CommunicationLedger()
        session, _, _ = self._sealed(ledger)
        base = ledger.downlink_bytes
        session._shares[2, 0] ^= np.uint64(1)  # party 4's word, x = 1
        with pytest.raises(RuntimeError, match="party 4's mask word"):
            session.recover([0, 4, 9])
        assert not any(session.is_recovered(p) for p in session.cohort)
        assert ledger.downlink_bytes == base
        session._shares[2, 0] ^= np.uint64(1)
        session.recover([0, 4, 0, 9])
        session.recover([0, 4])
        assert [session.is_recovered(p) for p in session.cohort] == [
            True, False, True, True]
        assert ledger.downlink_bytes == base + 3 * 3 * SHARE_BYTES


# ---------------------------------------------------------------- Work pins


@pytest.fixture
def work(monkeypatch):
    """Count what the privacy plane pays for: words derived (by stream, so
    "once each" is checkable), streams expanded, and seed sequences built —
    an explicit ``SeedSequence`` or the one a ``PCG64(seed)`` builds."""
    counts = Counter()
    derived = Counter()
    stream_word = secure_aggregation._stream_word
    expand_word = secure_aggregation._expand_word

    def counting_word(shared_seed, context, key):
        counts["words"] += 1
        derived[shared_seed, tuple(context), key] += 1
        return stream_word(shared_seed, context, key)

    def counting_expand(*args, **kwargs):
        counts["streams"] += 1
        return expand_word(*args, **kwargs)

    def counting_seeds(build):
        def make(*args, **kwargs):
            counts["seed_sequences"] += 1
            return build(*args, **kwargs)
        return make

    monkeypatch.setattr(secure_aggregation, "_stream_word", counting_word)
    monkeypatch.setattr(secure_aggregation, "_expand_word", counting_expand)
    for name in ("SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name,
                            counting_seeds(getattr(np.random, name)))
    counts.derived = derived
    return counts


class TestWorkPins:
    @pytest.mark.parametrize("threshold", [None, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_a_session_expands_each_stream_once(self, work, n, threshold):
        """Each word derived once, each stream expanded once, in both modes:
        construction derives one word per member, its seal expands it."""
        dim = 7
        cohort = [3 * i + 1 for i in range(n)]
        session = SecureAggregationSession(
            cohort, dim, shared_seed=1,
            threshold=None if threshold is None else min(threshold, n))
        streams = n
        # Under a threshold each member's share blinding is keyed by one
        # more word.
        words = streams if threshold is None else streams + n
        # One seed sequence for the session's generator, none per stream or
        # share bundle.
        assert work == {"words": words, "seed_sequences": 1}
        bank = ParamBank(dim, capacity=n)
        party_rows = []
        for party_id in cohort:
            row = bank_row(bank, np.full(7, float(party_id)))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        plain = bank_of(
            [np.full(7, float(party_id)) for party_id in cohort])
        got = session.combine_rows(bank, np.ones(n), party_rows)
        assert np.array_equal(
            got, plain.weighted_combine(np.ones(n), list(range(n))))
        assert work == {"words": words, "streams": streams,
                        "seed_sequences": 1}
        assert len(work.derived) == words
        assert set(work.derived.values()) == {1}
        # Every net mask was consumed by its unseal.
        assert session._nets == {}

    def test_a_member_that_never_seals_leaves_no_net_behind(self, work):
        """The round hook skips zero-sample reports: their cohort member
        never seals a row, and its stream is never expanded."""
        dim = 5
        session = SecureAggregationSession([0, 1, 2, 3], dim)
        bank = ParamBank(dim, capacity=3)
        party_rows = []
        for party_id in (0, 1, 3):
            row = bank_row(bank, np.full(5, 1.0 + party_id))
            session.seal_row(party_id, bank.row(row))
            party_rows.append((party_id, row))
        session.combine_rows(bank, np.ones(1), party_rows[:1])
        assert sorted(session._nets) == [1, 3]
        session.combine_rows(bank, np.ones(2), party_rows[1:])
        assert session._nets == {}
        # The idle member's word was derived; its stream was not expanded.
        assert work == {"words": 4, "streams": 3, "seed_sequences": 1}

    def test_unseal_expands_no_stream(self, work):
        dim = 5
        session = SecureAggregationSession([0, 1, 2], dim, threshold=2)
        rows = {p: np.full(5, 1.0 + p) for p in session.cohort}
        for party_id, row in rows.items():
            session.seal_row(party_id, row)
        before = +work
        session.recover(list(rows))
        for party_id, row in rows.items():
            session.unseal_row(party_id, row)
        assert work == before

    def test_window_flush_frees_the_masks_of_expired_reports(
            self, tiny_spec, tiny_dataset, work):
        """Reports stranded at a window boundary die sealed, and their
        session — the only holder of their net masks — dies with them:
        nothing is reconstructed, nothing is left held."""
        engine = FederationEngine(
            FederationConfig(mode="buffered", min_reports=99,
                             max_wait_rounds=99), seed=0)
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
        drawn = +work
        assert engine.begin_window(1) == 4
        gc.collect()
        assert ref() is None
        assert work == drawn
