"""The privacy boundary: PrivacyPlan knobs, Shamir t-of-n recovery.

Four layers of pins:

* **Knob surface** — :class:`~repro.privacy.plan.PrivacyPlan` parsing
  (spec strings, mappings, the bare ``on`` / ``off`` shorthand) and its
  threading through ``RunSettings`` → ``ExperimentPlan`` →
  ``StrategyContext`` → plan files → the CLI.
* **Threshold sessions** — share distribution and reconstruction are
  metered under the ledger's ``secure_agg`` channel; below-threshold
  availability refuses with :class:`IncompleteSubmissionError` before
  anything is unsealed; recovery is idempotent.
* **Differential runs** — a full-survival ``t``-of-``n`` run is bitwise
  identical to the seed-derived shortcut at float64 *and* float32 (only
  the ledger may differ, by exactly the share traffic), and a legacy
  masked run records zero ``secure_agg`` bytes.
* **The retired key** — ``sealed_scoring`` still loads with either value
  and serializes back unchanged, and a run that carries it reproduces the
  run without it bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data.federated import FederatedShiftDataset
from repro.experiments.plan import ExperimentPlan
from repro.experiments.registry import build_strategy
from repro.federation.accounting import CommunicationLedger
from repro.federation.async_engine import FederationConfig
from repro.federation.availability import AvailabilityConfig
from repro.harness.runner import run_strategy
from repro.privacy.plan import PrivacyPlan, resolve_threshold
from repro.privacy.secure_aggregation import (
    SHARE_BYTES,
    IncompleteSubmissionError,
    SecureAggregationSession,
)
from repro.utils.params import ParamBank
from repro.utils.serialization import run_result_to_dict
from tests.conftest import bank_row, make_run_settings, make_tiny_spec


# ------------------------------------------------------------- knob surface

class TestPrivacyPlanKnobs:
    def test_default_plan_is_all_off(self):
        plan = PrivacyPlan()
        assert not plan.masking and not plan.sealed_scoring
        assert plan.threshold is None and plan.mask_seed is None
        assert PrivacyPlan.from_value("") == plan
        assert PrivacyPlan.from_value(None) is None  # the caller's default

    def test_spec_string_parsing(self):
        plan = PrivacyPlan.from_value("masking=on,threshold=3")
        assert plan.masking and plan.threshold == 3
        assert PrivacyPlan.from_value("on") == PrivacyPlan(masking=True)
        assert PrivacyPlan.from_value("off") == PrivacyPlan()
        full = PrivacyPlan.from_value(
            "masking=on,threshold=majority,sealed_scoring=on,mask_seed=7")
        assert full.threshold == "majority"
        assert full.sealed_scoring and full.mask_seed == 7
        assert PrivacyPlan.from_value("on,threshold=3") == plan

    @pytest.mark.parametrize("plan", [
        PrivacyPlan(),
        PrivacyPlan(masking=True),
        PrivacyPlan(masking=True, threshold=3),
        PrivacyPlan(masking=True, threshold="majority", sealed_scoring=True),
        PrivacyPlan(sealed_scoring=True, mask_seed=11),
    ])
    def test_str_and_dict_round_trip(self, plan):
        assert PrivacyPlan.from_value(plan.spec()) == plan
        assert PrivacyPlan.from_value(plan.to_dict()) == plan

    def test_threshold_resolution_per_cohort(self):
        majority = PrivacyPlan(masking=True, threshold="majority").threshold
        assert resolve_threshold(majority, 8) == 5
        assert resolve_threshold(majority, 1) == 1
        fixed = PrivacyPlan(masking=True, threshold=3).threshold
        assert resolve_threshold(fixed, 8) == 3
        # Per-expert cohorts can be tiny: t degrades to n, never refuses.
        assert resolve_threshold(fixed, 2) == 2
        assert resolve_threshold(PrivacyPlan().threshold, 8) is None

    def test_mask_root_defaults_to_run_seed(self):
        assert PrivacyPlan(masking=True).mask_root(42) == 42
        assert PrivacyPlan(masking=True, mask_seed=7).mask_root(42) == 7

    def test_threshold_requires_masking(self):
        with pytest.raises(ValueError, match="requires"):
            PrivacyPlan(threshold=3)

    def test_invalid_values_fail_loudly(self):
        with pytest.raises(ValueError, match=r"\['tresholb'\] in PrivacyPlan"):
            PrivacyPlan.from_value({"masking": True, "tresholb": 3})
        with pytest.raises(ValueError, match="threshold"):
            PrivacyPlan(masking=True, threshold="sometimes")
        with pytest.raises(ValueError, match="threshold"):
            PrivacyPlan(masking=True, threshold=0)
        with pytest.raises(ValueError, match="key=value"):
            PrivacyPlan.from_value("masking=")
        with pytest.raises(ValueError, match="PrivacyPlan.masking"):
            PrivacyPlan.from_value("maybe")
        with pytest.raises(ValueError, match="PrivacyPlan.masking"):
            PrivacyPlan.from_value(3.5)
        with pytest.raises(ValueError, match="PrivacyPlan.threshold"):
            PrivacyPlan.from_value({"masking": True, "threshold": True})
        with pytest.raises(ValueError, match="a bool is not a plan"):
            PrivacyPlan.from_value(True)


class TestPlanThreading:
    def test_run_settings_always_carry_a_plan(self):
        settings = make_run_settings()
        assert settings.privacy == PrivacyPlan()
        assert settings.secure_aggregation is False
        masked = dataclasses.replace(settings,
                                     privacy="masking=on,threshold=3")
        assert masked.privacy.threshold == 3
        assert masked.secure_aggregation is True  # the serialized mirror

    def test_sealed_scoring_alone_does_not_mask(self):
        settings = dataclasses.replace(make_run_settings(),
                                       privacy="sealed_scoring=on")
        assert settings.privacy.sealed_scoring
        assert not settings.privacy.masking
        assert settings.secure_aggregation is False

    def test_experiment_plan_round_trip_and_resolve(self):
        plan = ExperimentPlan.build("fashion_mnist_sim", ["fedavg"],
                                    privacy="masking=on,threshold=3")
        assert plan.privacy == PrivacyPlan(masking=True, threshold=3)
        revived = ExperimentPlan.from_dict(plan.to_dict())
        assert revived.privacy == plan.privacy
        _, settings = revived.resolve()
        assert settings.privacy == plan.privacy
        assert settings.secure_aggregation is True

    def test_experiment_plan_rejects_contradiction(self):
        """Only an old plan file can still say secure_aggregation, and only
        at the masking its privacy plan declares."""
        with pytest.raises(ValueError, match="mirrors privacy.masking"):
            ExperimentPlan.from_dict({
                "dataset": "fashion_mnist_sim", "strategies": ["fedavg"],
                "settings_override": {"privacy": {"masking": True},
                                      "secure_aggregation": False}})

    def test_scenario_doc_privacy_block(self):
        plan = ExperimentPlan.from_dict({
            "dataset": "fashion_mnist_sim", "strategies": ["fedavg"],
            "privacy": {"masking": True, "threshold": "majority"}})
        assert plan.to_dict()["privacy"] == {"masking": True,
                                             "threshold": "majority",
                                             "sealed_scoring": False,
                                             "mask_seed": None}
        revived = ExperimentPlan.from_dict(plan.to_dict())
        assert revived.privacy == PrivacyPlan(masking=True,
                                              threshold="majority")

    def test_scenario_doc_rejects_unknown_privacy_key(self):
        with pytest.raises(ValueError, match=r"\['treshold'\] in plan privacy"):
            ExperimentPlan.from_dict({
                "dataset": "fashion_mnist_sim", "strategies": ["fedavg"],
                "privacy": {"masking": True, "treshold": 3}})

    def test_cli_accepts_privacy_spec(self):
        from repro.__main__ import build_parser
        args = build_parser().parse_args(
            ["compare", "fashion_mnist_sim", "--methods", "fedavg",
             "--privacy", "masking=on,threshold=3,sealed_scoring=on"])
        plan = PrivacyPlan.from_value(args.privacy)
        assert plan.masking and plan.threshold == 3 and plan.sealed_scoring


# ------------------------------------------------------- threshold sessions

class TestThresholdSession:
    def _session(self, cohort=(0, 1, 2, 3), threshold=3, ledger=None):
        return SecureAggregationSession(list(cohort), 4, shared_seed=7,
                                        threshold=threshold, ledger=ledger)

    def test_recovery_pulls_t_shares_per_word_once(self):
        ledger = CommunicationLedger()
        session = self._session(ledger=ledger)
        base = ledger.downlink_bytes
        session.recover([0])
        pulled = 3 * SHARE_BYTES  # 1 word x t shares
        assert ledger.downlink_bytes == base + pulled
        assert session.is_recovered(0)
        session.recover([0])  # idempotent: no re-pull, no double metering
        assert ledger.downlink_bytes == base + pulled

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_share_distribution_is_metered(self, n):
        """At ``async_masked``'s t = 3 (clamped to the cohort), each member
        sends one share of its word to each of its n - 1 peers through the
        server, and recovering p members pulls t shares of each word."""
        ledger = CommunicationLedger()
        session = self._session(cohort=[3 * i + 2 for i in reversed(range(n))],
                                ledger=ledger)
        t = session.threshold
        assert t == min(3, n)
        setup = n * (n - 1) * SHARE_BYTES
        assert (ledger.uplink_bytes, ledger.downlink_bytes) == (setup, setup)
        assert ledger.by_category.get("secure_agg", 0) == 2 * setup
        first = session.cohort[:max(1, n // 2)]
        session.recover(first)
        pulled = len(first) * t * SHARE_BYTES
        assert (ledger.uplink_bytes, ledger.downlink_bytes) == (
            setup, setup + pulled)
        session.recover(session.cohort)
        pulled = n * t * SHARE_BYTES
        assert (ledger.uplink_bytes, ledger.downlink_bytes) == (
            setup, setup + pulled)
        assert dict(ledger.by_category) == {"secure_agg": 2 * setup + pulled}

    def test_below_threshold_refuses_reconstruction(self):
        session = self._session()
        with pytest.raises(IncompleteSubmissionError, match="refusing"):
            session.recover([0], available=[1, 2])

    def test_no_threshold_session_records_zero_share_traffic(self):
        ledger = CommunicationLedger()
        session = self._session(threshold=None, ledger=ledger)
        session.recover([0, 1])
        assert ledger.total_bytes == 0
        assert "secure_agg" not in ledger.by_category

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_threshold_combine_matches_plain_combine(self, rng, dtype):
        dim = 11
        rows = [rng.normal(size=dim).astype(dtype)
                for _ in range(3)]
        weights = np.array([2.0, 1.0, 1.0])

        plain_bank = ParamBank(dim, dtype=dtype, capacity=3)
        plain_rows = [bank_row(plain_bank, r) for r in rows]
        expected = plain_bank.weighted_combine(weights, plain_rows)

        bank = ParamBank(dim, dtype=dtype, capacity=3)
        session = SecureAggregationSession([0, 1, 2], dim, shared_seed=9,
                                           dtype=dtype, threshold=2)
        party_rows = []
        for pid, r in enumerate(rows):
            row = bank_row(bank, r)
            session.seal_row(pid, bank.row(row))
            party_rows.append((pid, row))
        got = session.combine_rows(bank, weights, party_rows)
        assert np.array_equal(got, expected)
        # Full survival went through real reconstruction, not the shortcut.
        assert all(session.is_recovered(pid) for pid, _ in party_rows)


# ----------------------------------------------------- differential run pins

def _spec_ds(seed):
    spec = make_tiny_spec(name=f"unit_privacy_{seed}", num_parties=6,
                          num_windows=2, window_regimes=(("fog", 4),),
                          seed=seed)
    return spec, FederatedShiftDataset(spec)


def _run(method, spec, ds, settings, seed=0):
    return run_strategy(build_strategy(method), spec, settings, seed=seed,
                        dataset=ds)


class TestThresholdRunsBitwise:
    def test_full_survival_t_of_n_matches_shortcut_at_float64(self):
        """The acceptance pin: recovery changes *when* the server may derive
        masks, never *what* it derives — so the only difference a threshold
        leaves on a full-survival run is the share traffic in the ledger."""
        spec, ds = _spec_ds(51)
        base = make_run_settings()
        shortcut = _run("fedavg", spec, ds,
                        dataclasses.replace(base, privacy="masking=on"))
        recovered = _run("fedavg", spec, ds,
                         dataclasses.replace(base,
                                             privacy="masking=on,threshold=3"))
        first = run_result_to_dict(shortcut)
        second = run_result_to_dict(recovered)
        shortcut_ledger = first.pop("ledger")
        recovered_ledger = second.pop("ledger")
        assert first == second
        # secure_agg bytes are nonzero iff threshold recovery ran.
        assert "secure_agg_mb" not in shortcut_ledger
        assert recovered_ledger["secure_agg_mb"] > 0
        # Share traffic is the *only* ledger delta.
        non_share = {k: v for k, v in recovered_ledger.items()
                     if not k.startswith(("secure_agg", "uplink", "downlink",
                                          "total"))}
        assert non_share == {k: v for k, v in shortcut_ledger.items()
                             if not k.startswith(("uplink", "downlink",
                                                  "total"))}

    def test_full_survival_t_of_n_matches_shortcut_at_float32(self):
        from repro.utils.precision import PrecisionPlan

        spec, ds = _spec_ds(53)
        base = dataclasses.replace(make_run_settings(),
                                   precision=PrecisionPlan(params="float32"))
        shortcut = _run("fedavg", spec, ds,
                        dataclasses.replace(base, privacy="masking=on"))
        recovered = _run("fedavg", spec, ds,
                         dataclasses.replace(base,
                                             privacy="masking=on,threshold=3"))
        first = run_result_to_dict(shortcut)
        second = run_result_to_dict(recovered)
        first.pop("ledger")
        ledger = second.pop("ledger")
        assert first == second
        assert ledger["secure_agg_mb"] > 0

    def test_dropout30_threshold_run_is_deterministic(self):
        """The CI determinism contract: a masking=on,threshold=3 run under
        the dropout30 availability preset recovers masks through real share
        reconstruction (nonzero secure_agg bytes) and reproduces itself."""
        spec, ds = _spec_ds(59)
        federation = FederationConfig(
            mode="buffered", min_reports=3, max_wait_rounds=2,
            availability=AvailabilityConfig.scenario("dropout30"))
        settings = dataclasses.replace(make_run_settings(),
                                       federation=federation,
                                       privacy="masking=on,threshold=3")
        first = _run("fedavg", spec, ds, settings, seed=2)
        second = _run("fedavg", spec, ds, settings, seed=2)
        assert run_result_to_dict(first) == run_result_to_dict(second)
        assert first.extras["federation"]["dropped"] > 0
        assert first.ledger_summary["secure_agg_mb"] > 0

    def test_mask_seed_override_changes_masks_not_results(self):
        """mask_seed decouples the mask streams from the data/model seed;
        exact unsealing keeps the aggregate bit-identical regardless."""
        spec, ds = _spec_ds(61)
        base = make_run_settings()
        default = _run("fedavg", spec, ds,
                       dataclasses.replace(base, privacy="masking=on"))
        pinned = _run("fedavg", spec, ds,
                      dataclasses.replace(base,
                                          privacy="masking=on,mask_seed=999"))
        assert (run_result_to_dict(default)
                == run_result_to_dict(pinned))


# -------------------------------------------------------------- retired key

class TestRetiredSealedScoring:
    """``sealed_scoring`` is retired: a spec string or a plan dict that
    carries it, with either value, loads, writes the key back as it read it,
    and runs to the same result as the plan without it."""

    SPEC = "masking=on,threshold=3"

    def test_spec_string_loads_and_round_trips(self):
        retired = PrivacyPlan.from_value(self.SPEC + ",sealed_scoring=on")
        assert retired.sealed_scoring and retired.masking
        assert PrivacyPlan.from_value(retired.spec()) == retired
        assert (dataclasses.replace(retired, sealed_scoring=False)
                == PrivacyPlan.from_value(self.SPEC))

    @pytest.mark.parametrize("value", [True, False])
    def test_plan_dict_round_trips(self, value):
        doc = {"dataset": "fashion_mnist_sim", "strategies": ["shiftex"],
               "privacy": {"masking": True, "threshold": 3,
                           "sealed_scoring": value}}
        plan = ExperimentPlan.from_dict(doc)
        assert plan.to_dict()["privacy"]["sealed_scoring"] is value
        assert (dataclasses.replace(plan.privacy, sealed_scoring=False)
                == PrivacyPlan.from_value(self.SPEC))
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_key_beside_it_still_fails(self):
        """Keeping the key did not loosen the check on its neighbours."""
        with pytest.raises(ValueError, match=r"\['sealed_scorng'\] in PrivacyPlan"):
            PrivacyPlan.from_value(self.SPEC
                                   + ",sealed_scoring=on,sealed_scorng=on")
        with pytest.raises(ValueError, match=r"\['sealed_scorng'\] in plan privacy"):
            ExperimentPlan.from_dict({
                "dataset": "fashion_mnist_sim", "strategies": ["shiftex"],
                "privacy": {"masking": True, "sealed_scoring": True,
                            "sealed_scorng": True}})

    def test_shiftex_sealed_scoring_run_is_bitwise_identical(self):
        spec, ds = _spec_ds(67)
        base = make_run_settings()
        plain = _run("shiftex", spec, ds,
                     dataclasses.replace(base, privacy=self.SPEC))
        sealed = _run("shiftex", spec, ds,
                      dataclasses.replace(
                          base, privacy=self.SPEC + ",sealed_scoring=on"))
        assert run_result_to_dict(plain) == run_result_to_dict(sealed)


class TestFullPlanRunsBitwise:
    def test_full_privacy_plan_run_matches_plain(self):
        """Both mechanisms at once — masking and t-of-n recovery — leave a
        ShiftEx run bitwise unchanged outside the ledger's share-traffic
        entry."""
        spec, ds = _spec_ds(71)
        base = make_run_settings()
        plain = _run("shiftex", spec, ds, base)
        private = _run("shiftex", spec, ds,
                       dataclasses.replace(
                           base, privacy="masking=on,threshold=majority"))
        first, second = run_result_to_dict(plain), run_result_to_dict(private)
        first.pop("ledger")
        ledger = second.pop("ledger")
        assert first == second
        assert ledger["secure_agg_mb"] > 0
