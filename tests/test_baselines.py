"""Tests for the four comparison baselines (plus plain FedAvg)."""

import numpy as np
import pytest

from repro.baselines.feddrift import FedDriftStrategy
from repro.baselines.fedprox import FedProxStrategy
from repro.baselines.fielding import FieldingStrategy
from repro.baselines.oort import OortStrategy
from repro.data.federated import FederatedShiftDataset
from repro.experiments.registry import build_strategy, strategy_names
from repro.federation.rounds import run_fl_round
from tests.conftest import (make_context, make_run_settings, make_tiny_spec,
                            mean_accuracy)


@pytest.fixture(scope="module")
def env():
    spec = make_tiny_spec(name="unit_baselines", num_parties=8, num_windows=3,
                          seed=31)
    dataset = FederatedShiftDataset(spec)
    return spec, dataset


def run_windows(strategy, spec, dataset, rounds=2, seed=0):
    ctx = make_context(spec, dataset, window=0, seed=seed)
    strategy.setup(ctx)
    for window in range(spec.num_windows):
        for pid, party in ctx.parties.items():
            party.set_window_data(dataset.party_window(pid, window))
        strategy.start_window(window)
        for r in range(rounds):
            strategy.run_round(window, r)
        strategy.end_window(window)
    return ctx


class TestRegistry:
    def test_build_all_names(self):
        names = ("fedavg", "fedprox", "oort", "fielding", "feddrift")
        assert set(names) <= set(strategy_names())
        for name in names:
            strategy = build_strategy(name)
            assert strategy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_strategy("fedsgd")


class TestFedProx:
    def test_runs_and_serves_global_model(self, env):
        spec, dataset = env
        strategy = FedProxStrategy(prox_mu=0.05)
        run_windows(strategy, spec, dataset)
        p0 = strategy.params_for_party(0)
        p1 = strategy.params_for_party(5)
        assert np.allclose(p0, p1), "FedProx serves one global model"

    def test_training_changes_model(self, env):
        spec, dataset = env
        strategy = FedProxStrategy()
        ctx = make_context(spec, dataset, seed=1)
        strategy.setup(ctx)
        before = strategy.global_params.copy()
        strategy.run_round(0, 0)
        assert not np.allclose(strategy.global_params, before)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            FedProxStrategy(prox_mu=-1.0)

    def test_mean_accuracy_reasonable_after_training(self, env):
        spec, dataset = env
        strategy = FedProxStrategy()
        run_windows(strategy, spec, dataset, rounds=4)
        accuracy = mean_accuracy(strategy, dataset, spec.num_windows - 1)
        assert accuracy > 1.5 / spec.num_classes


class TestOort:
    def test_utilities_updated_for_participants(self, env):
        spec, dataset = env
        strategy = OortStrategy()
        ctx = make_context(spec, dataset, seed=2)
        strategy.setup(ctx)
        strategy.run_round(0, 0)
        assert any(u > 0 for u in strategy._utilities.values())

    def test_selection_prefers_high_utility(self, env):
        spec, dataset = env
        strategy = OortStrategy(exploration_fraction=0.0)
        ctx = make_context(spec, dataset, seed=3)
        strategy.setup(ctx)
        strategy._utilities = {pid: float(pid) for pid in ctx.parties}
        selected = strategy._select(1, 0)
        k = ctx.round_config.participants_per_round
        expected = sorted(ctx.parties, reverse=True)[:k]
        assert sorted(selected) == sorted(expected)

    def test_exploration_prefers_unselected(self, env):
        spec, dataset = env
        strategy = OortStrategy(exploration_fraction=1.0)
        ctx = make_context(spec, dataset, seed=4)
        strategy.setup(ctx)
        strategy._times_selected = {pid: pid for pid in ctx.parties}
        selected = strategy._select(1, 0)
        assert 0 in selected  # the never-selected party is explored first

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            OortStrategy(exploration_fraction=1.5)

    def test_runs_all_windows(self, env):
        spec, dataset = env
        strategy = OortStrategy()
        run_windows(strategy, spec, dataset)
        assert strategy.describe_state()["num_models"] == 1


class TestFielding:
    def test_clusters_parties_by_labels(self, env):
        spec, dataset = env
        strategy = FieldingStrategy()
        ctx = make_context(spec, dataset, seed=5)
        strategy.setup(ctx)
        strategy.start_window(0)
        assert strategy._membership
        assert len(strategy._cluster_models) >= 1
        assert set(strategy._membership) == set(ctx.parties)

    def test_every_party_gets_a_model(self, env):
        spec, dataset = env
        strategy = FieldingStrategy()
        run_windows(strategy, spec, dataset)
        for pid in range(spec.num_parties):
            params = strategy.params_for_party(pid)
            assert params is not None

    def test_reclusters_on_label_movement(self):
        spec = make_tiny_spec(name="unit_fielding_shift", label_shift=True,
                              num_parties=8, seed=37)
        dataset = FederatedShiftDataset(spec)
        strategy = FieldingStrategy(recluster_jsd=0.05)
        ctx = make_context(spec, dataset, seed=6)
        strategy.setup(ctx)
        strategy.start_window(0)
        before = dict(strategy._membership)
        for pid, party in ctx.parties.items():
            party.set_window_data(dataset.party_window(pid, 1))
        strategy.start_window(1)
        # Label shift occurred for half the parties; clustering refreshed.
        assert strategy._membership.keys() == before.keys()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            FieldingStrategy(recluster_jsd=-1)
        with pytest.raises(ValueError):
            FieldingStrategy(max_clusters=0)


class TestFedDrift:
    def test_starts_with_one_model(self, env):
        spec, dataset = env
        strategy = FedDriftStrategy()
        ctx = make_context(spec, dataset, seed=7)
        strategy.setup(ctx)
        assert strategy.describe_state()["num_models"] == 1

    def test_creates_model_on_drift(self):
        spec = make_tiny_spec(name="unit_feddrift", num_parties=8,
                              num_windows=2, window_regimes=(("invert_polarity", 5),),
                              seed=41)
        dataset = FederatedShiftDataset(spec)
        strategy = FedDriftStrategy(delta=0.25)
        ctx = make_context(spec, dataset, seed=8)
        strategy.setup(ctx)
        strategy.start_window(0)
        for r in range(4):
            strategy.run_round(0, r)
        strategy.end_window(0)
        for pid, party in ctx.parties.items():
            party.set_window_data(dataset.party_window(pid, 1))
        strategy.start_window(1)
        assert strategy.describe_state()["num_models"] >= 2

    def test_max_models_cap(self, env):
        spec, dataset = env
        strategy = FedDriftStrategy(delta=1e-6, max_models=2)
        run_windows(strategy, spec, dataset)
        assert strategy.describe_state()["num_models"] <= 2

    def test_merge_interchangeable_models(self, env):
        spec, dataset = env
        strategy = FedDriftStrategy(delta=100.0)  # everything interchangeable
        ctx = make_context(spec, dataset, seed=9)
        strategy.setup(ctx)
        strategy._models[1] = strategy._models[0] + 0.5
        strategy._membership = {pid: pid % 2 for pid in ctx.parties}
        expected = 0.5 * (strategy._models[0] + strategy._models[1])
        strategy._maybe_merge(1)
        assert list(strategy._models) == [0]
        assert np.array_equal(strategy._models[0], expected)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            FedDriftStrategy(delta=0.0)
        with pytest.raises(ValueError):
            FedDriftStrategy(max_models=0)

    @pytest.mark.parametrize("parties", [0, -2])
    def test_rejects_merge_checks_without_parties(self, parties):
        """0 probed parties made every merge check a mean of nothing (NaN,
        never a merge); a negative count failed inside ``rng.choice``."""
        with pytest.raises(ValueError, match="merge_check_parties must be at least 1"):
            FedDriftStrategy(merge_check_parties=parties)


class TestStoredVectorsOwnTheirMemory:
    """A strategy stores each model as a flat vector that nothing else
    writes: not the run's one party model, not a row of an engine bank."""

    @pytest.fixture(scope="class")
    def shift_env(self):
        spec = make_tiny_spec(name="unit_owned", num_parties=10, num_windows=2,
                              window_regimes=(("invert_polarity", 4),),
                              train=32, seed=71)
        return spec, FederatedShiftDataset(spec)

    @pytest.mark.parametrize("method", sorted(strategy_names()))
    def test_after_a_window_1_round(self, shift_env, method):
        spec, dataset = shift_env
        strategy = build_strategy(method)
        ctx = make_context(spec, dataset, settings=make_run_settings(participants=5))
        strategy.setup(ctx)
        for window, rounds in ((0, 3), (1, 1)):
            for pid, party in ctx.parties.items():
                party.set_window_data(dataset.party_window(pid, window))
            strategy.start_window(window)
            for r in range(rounds):
                strategy.run_round(window, r)
            if window == 0:
                strategy.end_window(window)
        served = {pid: strategy.params_for_party(pid) for pid in ctx.party_ids}
        banks = [bank._buf for bank in ctx.federation._banks.values()]
        assert banks
        for vector in served.values():
            assert vector.ndim == 1
            assert not np.shares_memory(vector, ctx.parties.model.flat_params)
            assert not any(np.shares_memory(vector, buf) for buf in banks)
        if method == "shiftex":
            assert len(strategy.registry) > 1
            assert not any(np.shares_memory(strategy._encoder, expert.flat)
                           for expert in strategy.registry.all())
        snapshot = {pid: vector.copy() for pid, vector in served.items()}
        run_fl_round(ctx, [0, 1, 2, 3], ctx.model_factory().get_params(),
                     round_tag="probe", stream="probe")
        for pid, vector in served.items():
            assert np.array_equal(vector, snapshot[pid])
            assert np.array_equal(strategy.params_for_party(pid), snapshot[pid])
