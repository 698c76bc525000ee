"""Secure aggregation via pairwise masking (Bonawitz et al., 2017 — simplified).

The paper's background (Section 2) lists secure aggregation among the
standard FL defenses; ShiftEx's expert updates can be aggregated under it so
the server only learns the *sum* of cohort updates, never an individual
party's parameters.

Protocol shape implemented here (the honest-but-curious core):

1. every ordered pair of parties ``(i, j)``, ``i < j``, derives a shared
   mask from a common seed (stand-in for a Diffie–Hellman agreed key);
2. party ``i`` submits ``x_i + sum_{j>i} m_ij - sum_{j<i} m_ji``;
3. the masks cancel pairwise in the sum, so the aggregate equals
   ``sum_i x_i`` while each submission is marginally random.

Bank-resident rewrite
---------------------
Everything operates on the flat parameter plane: a pairwise mask is **one
RNG stream producing a single flat ``(dim,)`` vector** (:func:`mask_vector`),
a party's net mask is one vector accumulation over its pairs, and
submissions live as rows of a :class:`~repro.utils.params.ParamBank` so the
masked sum is the existing ``weighted_combine`` kernel.  The per-tensor
``Params`` API (:func:`pairwise_mask`, :meth:`SecureAggregationSession.submit`)
is a thin facade over the flat core; its mask values are bitwise-identical
to the historical per-tensor draws because numpy generators fill arrays
sequentially, so ``normal(size=dim)`` equals the concatenation of
per-shape draws from the same stream.

Two mask domains
----------------
* **Float additive masks** (the legacy facade): Gaussian flat vectors added
  to the update.  Cancellation in the aggregate is exact only up to float
  rounding (~1e-12 relative), which is why the facade's masked mean is
  pinned to FedAvg with a tolerance.
* **Bit-domain seals** (the federation path): the row's raw bit pattern,
  viewed as unsigned integers, is translated by a uniform random vector in
  the additive group Z_{2^64} (Z_{2^32} for float32 banks) —
  :meth:`SecureAggregationSession.seal_row`.  This is the finite-group
  masking of the real protocol: a sealed row is *uniformly* distributed
  (perfect marginal secrecy, unlike Gaussian float masks), and unsealing is
  modular subtraction, which restores the original bits **exactly**.  The
  masked federation path therefore reproduces the unmasked aggregate bit
  for bit at any precision.

Session lifecycle through the async buffer
------------------------------------------
One session covers one dispatch cohort.  Parties seal their bank rows at
training time (:meth:`seal_row`); the rows then sit sealed in the
:class:`~repro.federation.async_engine.AsyncRoundBuffer` for as long as the
participation mode buffers them.  When an aggregation fires, the engine
runs the recovery phase — :meth:`combine_rows` unseals exactly the rows
entering the aggregate (emulating the protocol's threshold mask-share
reconstruction for partial cohorts), combines them with the bank kernel,
and scrubs the rows before they are released.  Reports dropped at a window
boundary are discarded *still sealed*: their masks are never reconstructed,
so a flushed buffer leaks no residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.privacy.shamir import PRIME, reconstruct_secret, split_secret
from repro.utils.params import (
    ParamBank,
    ParamSpec,
    Params,
    flatten_params,
    resolve_dtype,
)
from repro.utils.rng import spawn_rng

# One Shamir share on the wire: the (x, y) pair as two 8-byte words.
SHARE_BYTES = 16


class IncompleteSubmissionError(RuntimeError):
    """Raised when the aggregate is requested before all parties submitted."""


@dataclass(frozen=True)
class MaskingSpec:
    """Runtime masking parameters handed to the round paths.

    The historical ``secure=<seed>`` int survives as shorthand for
    ``MaskingSpec(seed)`` — no threshold, no ledger, bitwise the PR 5
    behavior.  ``threshold`` switches dropout recovery from the
    seed-derived shortcut to real Shamir ``t``-of-``n`` reconstruction
    (``int`` or ``"majority"``, resolved per cohort); ``ledger`` is the
    run's :class:`~repro.federation.accounting.CommunicationLedger`, which
    meters the share traffic under the ``secure_agg`` channel.
    """

    seed: int
    threshold: int | str | None = None
    ledger: object = None


def resolve_masking(secure: "int | MaskingSpec") -> MaskingSpec:
    """Coerce the round paths' ``secure`` argument (int seed or spec)."""
    if isinstance(secure, MaskingSpec):
        return secure
    return MaskingSpec(seed=int(secure))


def _resolve_threshold(threshold: "int | str | None", n: int) -> int | None:
    """The effective ``t`` for a cohort of ``n``: clamp ints into [1, n].

    ShiftEx dispatches per-expert cohorts that can be as small as one
    party; an experiment-level ``threshold=3`` must still seal those
    rounds, so the threshold degrades to the cohort size instead of
    refusing the round.
    """
    if threshold is None:
        return None
    if threshold == "majority":
        return max(1, int(n) // 2 + 1)
    return max(1, min(int(threshold), int(n)))


def _uint_dtype(dtype: np.dtype) -> np.dtype:
    """The unsigned integer dtype matching a float dtype's width."""
    dtype = np.dtype(dtype)
    if dtype.itemsize == 8:
        return np.dtype(np.uint64)
    if dtype.itemsize == 4:
        return np.dtype(np.uint32)
    raise ValueError(f"no seal domain for dtype {dtype}")


def mask_vector(shared_seed: int, party_a: int, party_b: int, dim: int,
                context: tuple = ()) -> np.ndarray:
    """The flat float mask party ``min(a,b)`` ADDS and ``max(a,b)`` SUBTRACTS.

    One RNG stream per (unordered) pair produces one ``(dim,)`` vector;
    ``context`` namespaces the stream (e.g. per round or per engine stream)
    so reusing party ids across rounds never reuses masks.
    """
    low, high = sorted((party_a, party_b))
    rng = spawn_rng(shared_seed, "pairwise-mask", *context, low, high)
    return rng.normal(size=dim)


def seal_bits(shared_seed: int, party_a: int, party_b: int, dim: int,
              dtype=None, context: tuple = ()) -> np.ndarray:
    """The pairwise bit-domain mask: uniform words in Z_{2^w}.

    ``dtype`` is the *float* dtype of the sealed rows; the mask lives in the
    unsigned integer type of the same width.  Like :func:`mask_vector`, the
    stream depends only on the unordered pair (plus ``context``).
    """
    low, high = sorted((party_a, party_b))
    udt = _uint_dtype(resolve_dtype(dtype))
    rng = spawn_rng(shared_seed, "seal-mask", *context, low, high)
    return rng.integers(0, 2 ** (8 * udt.itemsize), size=dim, dtype=udt)


def self_seal_bits(shared_seed: int, party_id: int, dim: int,
                   dtype=None, context: tuple = ()) -> np.ndarray:
    """A party's personal bit-domain mask (the protocol's ``b_i``).

    Bonawitz et al. double-mask: on top of the pairwise masks every party
    adds a personal mask whose shares the cohort reveals for *surviving*
    parties at recovery.  Here it guarantees a sealed row is uniformly
    random even when the dispatch cohort degenerates to one party — the
    case where pairwise masks alone would leave the row plaintext.
    """
    udt = _uint_dtype(resolve_dtype(dtype))
    rng = spawn_rng(shared_seed, "seal-self", *context, party_id)
    return rng.integers(0, 2 ** (8 * udt.itemsize), size=dim, dtype=udt)


def pairwise_mask(shared_seed: int, party_a: int, party_b: int,
                  sizes: list[tuple[int, ...]]) -> Params:
    """Per-tensor facade over :func:`mask_vector` (bitwise-identical draws)."""
    spec = ParamSpec(tuple(tuple(s) for s in sizes))
    return spec.view(mask_vector(shared_seed, party_a, party_b,
                                 spec.total_size))


class SecureAggregationSession:
    """One masked-sum aggregation round over a fixed cohort, bank-resident.

    The session serves two callers:

    * the **facade path** (:meth:`submit` / :meth:`aggregate`): per-tensor
      ``Params`` updates are flattened, float-masked, and parked as rows of
      an internal :class:`~repro.utils.params.ParamBank`; the aggregate is
      one ``weighted_combine`` over the masked rows (masks cancel in the
      sum up to float rounding);
    * the **federation path** (:meth:`seal_row` / :meth:`combine_rows`):
      rows owned by someone else's bank (a round bank, an async stream
      buffer) are sealed *in place* in the exact bit domain, and unsealed
      only inside :meth:`combine_rows` when their aggregation fires.

    ``context`` namespaces the mask streams (round tag, engine stream) so
    distinct rounds of one run never share masks.
    """

    def __init__(self, cohort: list[int],
                 param_shapes: "ParamSpec | list[tuple[int, ...]]",
                 shared_seed: int = 0, dtype=None,
                 context: tuple = (),
                 threshold: "int | str | None" = None,
                 ledger: object = None) -> None:
        if len(set(cohort)) != len(cohort) or not cohort:
            raise ValueError("cohort must be a non-empty list of distinct ids")
        if isinstance(param_shapes, ParamSpec):
            self.spec = param_shapes
        else:
            self.spec = ParamSpec(tuple(tuple(s) for s in param_shapes))
        self.cohort = sorted(cohort)
        self.param_shapes = list(self.spec.shapes)
        self.shared_seed = shared_seed
        self.context = tuple(context)
        self.dtype = resolve_dtype(dtype)
        self.threshold = _resolve_threshold(threshold, len(self.cohort))
        self.ledger = ledger
        self._facade_bank: ParamBank | None = None  # lazy: facade path only
        self._rows: dict[int, int] = {}
        self._weights: dict[int, float] = {}
        self._sealed: set[int] = set()
        # (owner, word key) -> {holder: (x, y)}: the share matrix the server
        # collects in the distribution round (threshold mode only).
        self._shares: dict[tuple, dict[int, tuple[int, int]]] = {}
        self._recovered: set[int] = set()
        if self.threshold is not None:
            self._distribute_shares()

    @property
    def _bank(self) -> ParamBank:
        """The facade path's submission storage, allocated on first use.

        Federation-path sessions (seal/unseal over someone else's bank)
        never touch it, so constructing a session stays allocation-free.
        """
        if self._facade_bank is None:
            self._facade_bank = ParamBank(self.spec, dtype=self.dtype,
                                          capacity=len(self.cohort))
        return self._facade_bank

    # ------------------------------------------------------------------ masks

    def net_mask_vector(self, party_id: int) -> np.ndarray:
        """The net float mask a party adds before upload (one add per pair)."""
        self._check_party(party_id)
        dim = self.spec.total_size
        net = np.zeros(dim)
        for other in self.cohort:
            if other == party_id:
                continue
            sign = 1.0 if party_id < other else -1.0
            net += sign * mask_vector(self.shared_seed, party_id, other, dim,
                                      context=self.context)
        return net

    def net_seal_bits(self, party_id: int) -> np.ndarray:
        """The party's net bit-domain mask: personal mask + pair words.

        The personal (double-masking) term keeps the seal uniformly random
        for any cohort size; the pairwise terms are the ones that would
        cancel in the cohort's modular sum.
        """
        self._check_party(party_id)
        dim = self.spec.total_size
        net = self_seal_bits(self.shared_seed, party_id, dim,
                             dtype=self.dtype, context=self.context)
        for other in self.cohort:
            if other == party_id:
                continue
            bits = seal_bits(self.shared_seed, party_id, other, dim,
                             dtype=self.dtype, context=self.context)
            if party_id < other:
                net += bits
            else:
                net -= bits
        return net

    # ------------------------------------------------------ Shamir recovery

    def _secret_word(self, label: str, *ids: int) -> int:
        """One 61-bit secret word: the digest a party's mask stream commits
        to.  The word is derived from the same (seed, context, ids) tuple
        as the mask stream itself, so reconstructing it from shares proves
        the server holds enough of the cohort to re-derive that stream —
        and the masks it then derives are bit-identical to the shortcut's.
        """
        rng = spawn_rng(self.shared_seed, label, *self.context, *ids)
        return int(rng.integers(PRIME))

    def _secret_words(self, party_id: int) -> dict[tuple, int]:
        """The word bundle party ``party_id`` splits: its personal-mask
        word (Bonawitz's ``b_i``) plus one word per pairwise stream it
        shares.  Pair words are keyed by the unordered pair, so either
        endpoint's bundle recovers the seeds a dropped peer took down."""
        words = {("self", party_id):
                 self._secret_word("share-secret-self", party_id)}
        for other in self.cohort:
            if other == party_id:
                continue
            low, high = sorted((party_id, other))
            words[("pair", low, high)] = self._secret_word(
                "share-secret-pair", low, high)
        return words

    def _distribute_shares(self) -> None:
        """The share-distribution round: every party splits its word bundle
        t-of-n and sends one share to each peer (via the server, which is
        what the ledger meters — its own share never transits the wire).
        """
        n = len(self.cohort)
        transit = 0
        for owner in self.cohort:
            for key, secret in self._secret_words(owner).items():
                rng = spawn_rng(self.shared_seed, "share-split",
                                *self.context, owner, *key)
                shares = split_secret(secret, n, self.threshold, rng)
                self._shares[(owner, key)] = dict(zip(self.cohort, shares))
                transit += (n - 1) * SHARE_BYTES
        if self.ledger is not None and transit:
            self.ledger.record_wire("secure_agg", sent_bytes=transit,
                                    received_bytes=transit)

    def recover(self, party_ids: list[int],
                available: "list[int] | None" = None) -> None:
        """The reconstruction round: rebuild each party's word bundle from
        the shares held by ``available`` parties (default: the cohort —
        every cohort member sealed a row, so it is alive to answer).

        Below-threshold availability raises
        :class:`IncompleteSubmissionError` *before* anything is unsealed.
        Each reconstructed word is checked against the direct derivation —
        the protocol gate that makes a full-survival t-of-n run bitwise
        identical to the seed-derived shortcut: recovery changes *when*
        the server may derive masks, never *what* it derives.
        """
        if self.threshold is None:
            return
        pool = self.cohort if available is None else available
        holders = [p for p in self.cohort if p in set(pool)]
        if len(holders) < self.threshold:
            raise IncompleteSubmissionError(
                f"mask recovery needs {self.threshold} of "
                f"{len(self.cohort)} share holders but only "
                f"{len(holders)} are available ({holders}); refusing to "
                "reconstruct below threshold")
        quorum = holders[:self.threshold]
        pulled = 0
        for party_id in party_ids:
            if party_id in self._recovered:
                continue
            self._check_party(party_id)
            for key, expected in self._secret_words(party_id).items():
                shares = [self._shares[(party_id, key)][h] for h in quorum]
                word = reconstruct_secret(shares)
                if word != expected:
                    raise RuntimeError(
                        f"share reconstruction for party {party_id} "
                        f"word {key} produced a mismatched secret — the "
                        "share matrix is corrupt")
                pulled += len(shares) * SHARE_BYTES
            self._recovered.add(party_id)
        if self.ledger is not None and pulled:
            self.ledger.record_wire("secure_agg", sent_bytes=0,
                                    received_bytes=pulled)

    def is_recovered(self, party_id: int) -> bool:
        """True when the party's words were reconstructed (or no threshold
        is configured, in which case the shortcut needs no recovery)."""
        return self.threshold is None or party_id in self._recovered

    def _check_party(self, party_id: int) -> None:
        if party_id not in self.cohort:
            raise KeyError(f"party {party_id} not in this session's cohort")

    def _uint_view(self, row: np.ndarray) -> np.ndarray:
        row = np.asarray(row)
        if row.dtype != self.dtype:
            raise ValueError(
                f"row dtype {row.dtype} does not match the session's "
                f"{self.dtype}")
        if row.ndim != 1 or row.size != self.spec.total_size:
            raise ValueError(
                f"row of size {row.size} does not match the session spec "
                f"(dim {self.spec.total_size})")
        return row.view(_uint_dtype(self.dtype))

    # ------------------------------------------------------- federation path

    def seal_row(self, party_id: int, row: np.ndarray) -> None:
        """Seal a bank row in place: exact bit-domain masking (party-side).

        After this call the row's bytes are uniformly random to anyone
        without the pair seeds; :meth:`unseal_row` restores them exactly.
        Aggregation weights are no business of the seal: the recovery phase
        (:meth:`combine_rows`, the async engine) weights reports at fire
        time, exactly as the unmasked paths do.
        """
        self._check_party(party_id)
        if party_id in self._sealed or party_id in self._rows:
            raise ValueError(f"party {party_id} already submitted")
        view = self._uint_view(row)
        view += self.net_seal_bits(party_id)
        self._sealed.add(party_id)

    def unseal_row(self, party_id: int, row: np.ndarray) -> None:
        """Remove a sealed row's net mask in place (recovery phase).

        In threshold mode the party's mask words must be reconstructed
        first; callers that know the surviving set run :meth:`recover`
        explicitly, anyone else gets the default full-cohort quorum here.
        """
        if party_id not in self._sealed:
            raise KeyError(f"party {party_id} has no sealed row")
        if not self.is_recovered(party_id):
            self.recover([party_id])
        view = self._uint_view(row)
        view -= self.net_seal_bits(party_id)
        self._sealed.discard(party_id)

    def is_sealed(self, party_id: int) -> bool:
        return party_id in self._sealed

    def combine_rows(self, bank, weights,
                     party_rows: list[tuple[int, int]]) -> np.ndarray:
        """Masked aggregation: unseal, run the bank kernel, scrub the rows.

        ``party_rows`` pairs each contributing party with its row in
        ``bank``.  Unsealing is exact, so the result is bit-for-bit the
        unmasked ``weighted_combine`` over the same rows; the rows are
        zeroed afterwards so no unmasked update outlives the aggregation
        (callers release them right after).
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(party_rows),):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{len(party_rows)} submitted rows")
        if float(weights.sum()) <= 0:
            # weighted_combine would reject this too, but only *after* the
            # rows were unsealed — validate while everything is still masked.
            raise ValueError("weights must sum to a positive value")
        # Threshold mode: run the reconstruction round for every
        # contributing party before any row is unsealed, so a
        # below-threshold cohort fails with everything still masked.
        self.recover([pid for pid, _ in party_rows])
        unsealed: list[int] = []
        try:
            for party_id, row in party_rows:
                self.unseal_row(party_id, bank.row(row))
                unsealed.append(row)
            return bank.weighted_combine(weights,
                                         [row for _, row in party_rows])
        finally:
            # Whatever happens, no unmasked update outlives this call.
            for row in unsealed:
                bank.row(row)[...] = 0.0

    # ------------------------------------------------------------ party side

    def mask_update(self, party_id: int, update: Params) -> Params:
        """Apply the party's net pairwise mask to its update (party-side op).

        The returned list views one freshly masked flat vector; the caller's
        ``update`` is never modified.
        """
        self._check_party(party_id)
        if [tuple(p.shape) for p in update] != self.param_shapes:
            raise ValueError("update shapes do not match the session")
        flat = np.array(flatten_params(update), dtype=self.dtype, copy=True)
        flat += self.net_mask_vector(party_id)
        return self.spec.view(flat)

    def submit(self, party_id: int, update: Params,
               weight: float = 1.0) -> None:
        """Mask and hand over one party's update (lands in a bank row)."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if party_id in self._rows or party_id in self._sealed:
            raise ValueError(f"party {party_id} already submitted")
        masked = self.mask_update(party_id, update)
        self._rows[party_id] = self._bank.alloc(masked)
        self._weights[party_id] = float(weight)

    # ------------------------------------------------------------ server side

    @property
    def _masked(self) -> dict[int, Params]:
        """Submitted (masked) updates as shaped views of the bank rows."""
        return {pid: self._bank.row_params(row)
                for pid, row in self._rows.items()}

    @property
    def missing(self) -> list[int]:
        return [p for p in self.cohort
                if p not in self._rows and p not in self._sealed]

    def aggregate(self) -> Params:
        """Uniform mean of the cohort's updates; masks cancel in the sum.

        Weighting happens party-side in real deployments (parties scale
        their update before masking), so the masked mean is only correct
        under uniform weights — mismatched weights would silently diverge
        from the unmasked FedAvg path, and are rejected instead.
        """
        if self._sealed:
            raise ValueError(
                f"parties {sorted(self._sealed)} submitted sealed bank rows "
                "(the federation path); aggregate() serves facade "
                "submissions only — their aggregation runs through "
                "combine_rows when it fires"
            )
        if self.missing:
            raise IncompleteSubmissionError(
                f"waiting for parties {self.missing}; masked updates are "
                "meaningless individually"
            )
        if len(set(self._weights.values())) > 1:
            offenders = ", ".join(
                f"party {pid}: {self._weights[pid]:g}"
                for pid in self.cohort if pid in self._weights)
            raise ValueError(
                f"masked aggregation requires uniform weights (got "
                f"{offenders}); pre-scale updates party-side instead"
            )
        rows = [self._rows[p] for p in self.cohort]
        flat = self._bank.weighted_combine(np.ones(len(rows)), rows)
        return self.spec.view(flat)

    def submission_is_masked(self, party_id: int, original: Params,
                             tolerance: float = 1e-9) -> bool:
        """True when the stored submission differs from the raw update
        (sanity check used in tests: the server never holds plaintext)."""
        if party_id not in self._rows:
            raise KeyError(f"party {party_id} has not submitted")
        if len(self.cohort) == 1:
            return False  # a singleton cohort cannot hide anything
        stored = self._bank.row_params(self._rows[party_id], writeable=False)
        return any(
            float(np.max(np.abs(s - o))) > tolerance
            for s, o in zip(stored, original)
        )
