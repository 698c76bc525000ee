"""Secure aggregation by per-row masking (after Bonawitz et al., 2017).

The paper's background (Section 2) lists secure aggregation among the
standard FL defenses; ShiftEx's expert updates can be aggregated under it so
that no individual party's update sits readable on the server between its
report and the aggregation it enters.

The guarantee implemented here (the honest-but-curious core): from its seal
until :meth:`SecureAggregationSession.combine_rows` unseals it, a party's
row is uniformly random to anyone without its mask word, and under a Shamir
threshold the server obtains that word only through ``t``-of-``n`` recovery.
Each row carries one personal mask.  Pairwise masks that cancel in a
modular sum would buy nothing here: staleness weights are floats applied at
fire time, so every row is unsealed on its own before the weighted combine,
and no modular sum of sealed rows is ever formed.

One word per mask stream
------------------------
Every member's mask stream has one seed: a 61-bit word of GF(2^61 - 1), the
keyed digest of (mask root, ``("self", party)``, context)
(:func:`_stream_word`).  The mask is expanded from that word alone
(:func:`_expand_word`: a digest of the word restates one PCG64), so under a
Shamir threshold the shares of a word *are* the shares of its stream's PRG
seed, as in Bonawitz et al.: whoever reconstructs the word can re-expand
the mask, and nobody else can.  A member's share blinding comes from the
same restated generator, keyed by the member's own ``("share", owner)``
word.

One mask domain: bit seals
--------------------------
Everything operates on the flat parameter plane.  A party's update lives as
one row of a :class:`~repro.utils.params.ParamBank` owned by the round
engine; sealing translates the row's raw bit pattern, viewed as unsigned
integers, by a uniform random vector in the additive group Z_{2^64}
(Z_{2^32} for float32 banks) — :meth:`SecureAggregationSession.seal_row`.
This is the finite-group masking of the real protocol: a sealed row is
*uniformly* distributed (perfect marginal secrecy), and unsealing is modular
subtraction, which restores the original bits **exactly**.  A masked round
therefore reproduces the unmasked aggregate bit for bit at any precision.

Session lifecycle through the round buffer
------------------------------------------
One session covers one dispatch cohort and has one shape in both modes.
Construction derives one word per member (under a threshold it then blinds
and shares each word t-of-n).  Each member seals its bank row once, at
training time (:meth:`seal_row`): the seal expands the member's own stream
and the session holds that net vector — the size of the row it masks —
until the row is unsealed.  The rows then sit sealed in the
:class:`~repro.federation.async_engine.AsyncRoundBuffer` for as long as the
participation mode buffers them.  When an aggregation fires, the engine
hands the ready set to :meth:`SecureAggregationSession.combine_rows` — the
one place that reconstructs mask words, and it does so before it unseals
exactly the rows entering the aggregate (they may span several dispatch
sessions; each unseal subtracts the held net vector and drops it, and
refuses a member not yet recovered), runs the bank kernel, and scrubs the
rows before they are released.  Reports dropped at a window boundary are
discarded *still sealed*: their masks are never reconstructed and die with
the session, so a flushed buffer leaks no residue.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from repro.privacy.plan import resolve_threshold
from repro.privacy.shamir import PRIME, open_shares, share_bundles
from repro.utils.params import resolve_dtype

# One Shamir share on the wire: the (x, y) pair as two 8-byte words.
SHARE_BYTES = 16


class IncompleteSubmissionError(RuntimeError):
    """Raised when mask recovery is asked of fewer share holders than the
    threshold — everything stays masked."""


@dataclass(frozen=True)
class MaskingSpec:
    """Runtime masking parameters: a run's ``StrategyContext.masking``.

    ``seed`` roots every mask stream.  ``threshold`` switches dropout
    recovery from the seed-derived shortcut to real Shamir ``t``-of-``n``
    reconstruction (``int`` or ``"majority"``, resolved per cohort);
    ``ledger`` is the run's
    :class:`~repro.federation.accounting.CommunicationLedger`, which meters
    the share traffic under the ``secure_agg`` channel.
    """

    seed: int
    threshold: int | str | None = None
    ledger: object = None


def _uint_dtype(dtype: np.dtype) -> np.dtype:
    """The unsigned integer dtype matching a float dtype's width."""
    dtype = np.dtype(dtype)
    if dtype.itemsize == 8:
        return np.dtype(np.uint64)
    if dtype.itemsize == 4:
        return np.dtype(np.uint32)
    raise ValueError(f"no seal domain for dtype {dtype}")


def _draw_words(rng: np.random.Generator, dim: int, dtype) -> np.ndarray:
    """``dim`` uniform words of Z_{2^w}, straight off the bit generator.

    PCG64 hands out 64-bit words and serves 32-bit draws low half first, so
    on a little-endian host this is byte for byte what
    ``rng.integers(0, 2**w, size=dim, dtype=uint)`` returns, without the
    bounded-integer loop.  On a big-endian host the ``uint32`` words come
    out pairwise swapped — still uniform, and seal / unseal round-trip
    exactly on any host because both sides draw through this one function.
    """
    udt = _uint_dtype(resolve_dtype(dtype))
    raw = rng.bit_generator.random_raw(-(-dim * udt.itemsize // 8))
    return raw.view(udt)[:dim]


def _stream_word(shared_seed: int, context: tuple, key: tuple) -> int:
    """The seed word of one mask stream, in GF(2^61 - 1).

    ``key`` is ``("self", party)`` (the party's mask) or ``("share",
    owner)`` (the owner's share blinding); the digest is keyed by the mask
    root (its low 64 bits) and covers the context, so
    every round of a run gets fresh words.  The 128-bit digest reduced mod
    the prime is uniform to within 2^-67.
    """
    root = (int(shared_seed) & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(repr((tuple(context), key)).encode(),
                             digest_size=16, key=root).digest()
    return int.from_bytes(digest, "little") % PRIME


def _restate(rng: np.random.Generator, word: int) -> np.random.Generator:
    """``rng`` restated to the stream seeded by ``word``.

    A digest of the word is the PCG64 ``state`` and (forced odd) ``inc``,
    set on ``rng``'s bit generator through its public ``state`` setter —
    restating one generator costs a few µs, where seeding a fresh one
    through a ``SeedSequence`` costs ~25.
    """
    digest = hashlib.blake2b(word.to_bytes(8, "little"),
                             digest_size=32).digest()
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(digest[:16], "little"),
                  "inc": int.from_bytes(digest[16:], "little") | 1},
        "has_uint32": 0, "uinteger": 0}
    return rng


def _expand_word(rng: np.random.Generator, word: int, dim: int,
                 dtype) -> np.ndarray:
    """The stream seeded by ``word``: ``dim`` uniform words of Z_{2^w}."""
    return _draw_words(_restate(rng, word), dim, dtype)


def _stream_rng() -> np.random.Generator:
    """A PCG64 generator for :func:`_expand_word` to restate (its seed is
    overwritten before every draw)."""
    return np.random.Generator(np.random.PCG64(0))


class SecureAggregationSession:
    """The mask material of one dispatch cohort.

    The session owns no row storage: rows of the engine's stream bank are
    sealed *in place* in the exact bit domain (:meth:`seal_row`) and
    unsealed only inside :meth:`combine_rows`, when their aggregation
    fires.  ``dim`` is the length of those rows.  ``context`` namespaces
    the mask streams (engine stream, tick, round tag) so distinct rounds of
    one run never share masks.

    Every piece of mask material is paid for once.  Construction derives
    each member's seed word; in threshold mode the same word is the
    member's share bundle and the recovery gate's check.  A member's seal
    expands its own stream, and the session holds that net vector until
    :meth:`unseal_row` consumes it or the session dies with its expired
    reports; a member that never seals expands nothing.  A member seals
    once, never after the session's first unseal; a row unseals only once
    its member is recovered.  Every expansion and every bundle's blinding
    draw restates the session's one PCG64.
    """

    def __init__(self, cohort: list[int], dim: int,
                 shared_seed: int = 0, dtype=None,
                 context: tuple = (),
                 threshold: "int | str | None" = None,
                 ledger: object = None) -> None:
        if len(set(cohort)) != len(cohort) or not cohort:
            raise ValueError("cohort must be a non-empty list of distinct ids")
        self.dim = operator.index(dim)
        self.cohort = sorted(cohort)
        self._index = {party_id: i for i, party_id in enumerate(self.cohort)}
        self.shared_seed = shared_seed
        self.context = tuple(context)
        self.dtype = resolve_dtype(dtype)
        self.threshold = resolve_threshold(threshold, len(self.cohort))
        self.ledger = ledger
        # Members yet to seal; the session's first unseal closes it.
        self._unsubmitted = set(self.cohort)
        # party -> net mask, for every still-sealed row.
        self._nets: dict[int, np.ndarray] = {}
        self._rng = _stream_rng()
        # ``_words[i]`` is the seed word of ``cohort[i]``'s stream.
        # Threshold mode only: ``_shares[i, k]`` is the share of
        # ``_words[i]`` the server collects for holder ``cohort[k]`` at
        # ``x = k + 1``.
        self._words = np.array(
            [_stream_word(self.shared_seed, self.context, ("self", party_id))
             for party_id in self.cohort], dtype=np.uint64)
        self._shares: np.ndarray | None = None
        self._recovered: set[int] = set()
        if self.threshold is not None:
            self._distribute_shares()

    # ------------------------------------------------------ Shamir recovery

    def _distribute_shares(self) -> None:
        """The share-distribution round: every party splits its mask word
        (Bonawitz's ``b_i``) t-of-n and sends one share to each peer (via the
        server, which is what the ledger meters; its own share never
        transits the wire).  Each owner's blinding is one draw on the
        session's generator restated to the owner's ``("share", owner)``
        word, in cohort order; one Horner pass shares every word.
        """
        n, t = len(self.cohort), self.threshold
        blinding = np.empty((n, t - 1), dtype=np.uint64)
        for i, owner in enumerate(self.cohort):
            word = _stream_word(self.shared_seed, self.context,
                                ("share", owner))
            blinding[i] = _restate(self._rng, word).integers(
                PRIME, size=t - 1)
        self._shares = share_bundles(self._words, blinding, n)
        transit = n * (n - 1) * SHARE_BYTES
        if self.ledger is not None and transit:
            self.ledger.record_wire("secure_agg", sent_bytes=transit,
                                    received_bytes=transit)

    def recover(self, party_ids: list[int],
                available: "list[int] | None" = None) -> None:
        """The reconstruction round: rebuild each party's mask word from the
        shares held by ``available`` parties (default: the cohort — every
        cohort member sealed a row, so it is alive to answer).

        Below-threshold availability raises
        :class:`IncompleteSubmissionError` *before* anything is unsealed.
        Each reconstructed word — a mask stream's seed — is checked against
        the word the session derived, the protocol gate that makes a
        full-survival t-of-n run bitwise identical to the seed-derived
        shortcut: recovery changes *when* the server may expand masks,
        never *what* it expands.  Recovery is all or nothing: every pending
        party's word is checked before any party is marked recovered or any
        share byte is metered.
        """
        if self.threshold is None:
            return
        pool = set(self.cohort if available is None else available)
        holders = [i for i, p in enumerate(self.cohort) if p in pool]
        if len(holders) < self.threshold:
            raise IncompleteSubmissionError(
                f"mask recovery needs {self.threshold} of "
                f"{len(self.cohort)} share holders but only "
                f"{len(holders)} are available "
                f"({[self.cohort[i] for i in holders]}); refusing to "
                "reconstruct below threshold")
        pending = [p for p in dict.fromkeys(party_ids)
                   if p not in self._recovered]
        for party_id in pending:
            self._check_party(party_id)
        if not pending:
            return
        # Holder cohort[k] answers with its share at x = k + 1: one opening
        # pass over every pending word.
        quorum = holders[:self.threshold]
        rows = [self._index[p] for p in pending]
        opened = open_shares(self._shares[rows][:, quorum],
                             [k + 1 for k in quorum])
        mismatched = np.flatnonzero(opened != self._words[rows])
        if mismatched.size:
            raise RuntimeError(
                f"share reconstruction for party {pending[mismatched[0]]}'s "
                "mask word produced a mismatched secret — the share matrix "
                "is corrupt")
        self._recovered.update(pending)
        if self.ledger is not None:
            self.ledger.record_wire(
                "secure_agg", sent_bytes=0,
                received_bytes=len(pending) * len(quorum) * SHARE_BYTES)

    def is_recovered(self, party_id: int) -> bool:
        """True when the party's word was reconstructed (or no threshold
        is configured, in which case the shortcut needs no recovery)."""
        return self.threshold is None or party_id in self._recovered

    def _check_party(self, party_id: int) -> None:
        if party_id not in self._index:
            raise KeyError(f"party {party_id} not in this session's cohort")

    def _uint_view(self, row: np.ndarray) -> np.ndarray:
        row = np.asarray(row)
        if row.dtype != self.dtype:
            raise ValueError(
                f"row dtype {row.dtype} does not match the session's "
                f"{self.dtype}")
        if row.ndim != 1 or row.size != self.dim:
            raise ValueError(
                f"row of size {row.size} does not match the session "
                f"(dim {self.dim})")
        return row.view(_uint_dtype(self.dtype))

    # ------------------------------------------------------- seal / unseal

    def seal_row(self, party_id: int, row: np.ndarray) -> None:
        """Seal a bank row in place: exact bit-domain masking (party-side).

        After this call the row's bytes are uniformly random to anyone
        without the party's mask word; :meth:`unseal_row` restores them
        exactly.  A member seals once per session: a second seal raises,
        also after its row was unsealed, and so does a first seal after the
        session's first unseal.  Aggregation weights are no business of the
        seal: the engine weights reports at fire time (:meth:`combine_rows`),
        exactly as it does unmasked ones.
        """
        self._check_party(party_id)
        view = self._uint_view(row)
        if party_id not in self._unsubmitted:
            raise ValueError(f"party {party_id} already submitted, or the "
                             "session already unsealed a row")
        net = _expand_word(self._rng, int(self._words[self._index[party_id]]),
                           self.dim, self.dtype)
        view += net
        self._nets[party_id] = net
        self._unsubmitted.discard(party_id)

    def unseal_row(self, party_id: int, row: np.ndarray) -> None:
        """Remove a sealed row's net mask in place (recovery phase).

        In threshold mode the party's mask word must have been
        reconstructed first (:meth:`recover`, which :meth:`combine_rows`
        runs for every row it unseals); an unrecovered row is refused and
        left sealed.
        """
        if party_id not in self._nets:
            raise KeyError(f"party {party_id} has no sealed row")
        if not self.is_recovered(party_id):
            raise RuntimeError(f"party {party_id}'s mask word was not "
                               "recovered: run recover() before unsealing")
        view = self._uint_view(row)
        view -= self._nets.pop(party_id)
        # Unsealing follows the dispatch that seals: a cohort member without
        # a sealed row by now (a zero-sample report) will not bring one.
        self._unsubmitted.clear()

    def is_sealed(self, party_id: int) -> bool:
        return party_id in self._nets

    def combine_rows(self, bank, weights, party_rows: list[tuple[int, int]],
                     sessions: "list | None" = None) -> np.ndarray:
        """Masked aggregation: recover, unseal, run the bank kernel, scrub.

        ``party_rows`` pairs each contributing party with its row in
        ``bank``.  A ready set may span several dispatch cohorts:
        ``sessions[i]`` is then the session that sealed ``party_rows[i]``
        (None for a row dispatched unmasked); by default every row is this
        session's.  Unsealing is exact, so the result is bit-for-bit the
        unmasked ``weighted_combine`` over the same rows; the unsealed rows
        are zeroed afterwards so no unmasked update outlives the
        aggregation (callers release them right after).
        """
        if sessions is None:
            sessions = [self] * len(party_rows)
        if len(sessions) != len(party_rows):
            # A row without its session would enter the aggregate sealed.
            raise ValueError(
                f"{len(sessions)} sessions for {len(party_rows)} submitted "
                "rows: every row needs its sealing session (or None)")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(party_rows),):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{len(party_rows)} submitted rows")
        if float(weights.sum()) <= 0:
            # weighted_combine would reject this too, but only *after* the
            # rows were unsealed — validate while everything is still masked.
            raise ValueError("weights must sum to a positive value")
        # Threshold mode: each session runs its reconstruction round for
        # the parties it is about to unseal before any row is touched, so a
        # below-threshold cohort fails with everything still masked.
        members: dict[SecureAggregationSession, list[int]] = {}
        for session, (party_id, _) in zip(sessions, party_rows):
            if session is not None:
                members.setdefault(session, []).append(party_id)
        for session, party_ids in members.items():
            session.recover(party_ids)
        unsealed: list[int] = []
        try:
            for session, (party_id, row) in zip(sessions, party_rows):
                if session is not None:
                    session.unseal_row(party_id, bank.row(row))
                    unsealed.append(row)
            return bank.weighted_combine(weights,
                                         [row for _, row in party_rows])
        finally:
            # Whatever happens, no unmasked update outlives this call.
            for row in unsealed:
                bank.row(row)[...] = 0.0
