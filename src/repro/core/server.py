"""ShiftEx aggregator-side orchestration (Algorithm 2).

Window life cycle:

* ``start_window(0)`` — bootstrap: fit FLIPS on party label histograms.
* ``run_round(0, r)`` — train the single bootstrap expert with FLIPS-balanced
  participant selection.
* ``end_window(0)`` — freeze the encoder (the trained bootstrap model) and
  take every party's first report (Algorithm 1 with no previous window:
  both deltas zero, nothing metered); from those reports seed expert 0's
  latent memory and calibrate the threshold record (``delta_cov`` /
  ``delta_label`` from bootstrap null distributions, the reuse threshold
  epsilon from ``delta_cov``).
* ``start_window(w >= 1)`` — Algorithm 2's shift response: collect party
  reports (Algorithm 1, the same report path, now metered), each kept as its
  party's state for the next window's deltas, threshold them into the
  shifted set, K-means the
  shifted parties on latent centroids (Davies–Bouldin-selected k), fuse
  clusters within epsilon of each other, then per
  cluster: latent-memory match -> reuse the expert and update its memory
  with the cluster's embeddings, else clone the bootstrap model into a new
  expert seeded with them; clusters smaller than ``gamma`` fine-tune locally
  instead.  Then consolidate experts whose parameters exceed cosine
  similarity ``tau`` and fit FLIPS for each cohort the window trains.
* ``run_round(w, r)`` — each expert trains on its cohort with FLIPS-balanced
  selection under a shared participant budget.
* ``end_window(w >= 1)`` — nothing: memories and party reports were
  updated by the window's shift response.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from repro.core.config import ShiftExConfig
from repro.core.detector import PartyShiftReport, compute_party_report
from repro.clustering.selection import select_num_clusters
from repro.detection.calibration import CalibratedThresholds, ThresholdCalibrator
from repro.detection.mmd import class_conditional_mmd
from repro.experiments.registry import register_strategy
from repro.experts.consolidation import consolidate_experts
from repro.experts.matching import match_cluster_to_expert
from repro.experts.registry import ExpertRegistry
from repro.federation.party import embed_parties, train_parties
from repro.federation.rounds import run_fl_round
from repro.federation.strategy import (
    ContinualStrategy,
    StrategyContext,
    split_budget,
)
from repro.flips.selector import FlipsSelector


@register_strategy("shiftex")
class ShiftExStrategy(ContinualStrategy):
    """The paper's shift-aware mixture-of-experts framework."""

    name = "shiftex"

    def __init__(self, config: ShiftExConfig | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else ShiftExConfig()
        self.registry = ExpertRegistry(
            memory_capacity=self.config.memory_capacity,
            memory_eta=self.config.memory_eta,
        )
        self.assignments: dict[int, int] = {}
        self._finetuned: dict[int, np.ndarray] = {}
        # Expert 0's parameters at the end of W0, frozen: the encoder every
        # report embeds with and the CLONE(theta_0) of every created expert.
        self._encoder: np.ndarray | None = None
        self.thresholds: CalibratedThresholds | None = None
        # Each surveyed party's latest report, in survey order: the state
        # its next window's deltas are scored against.
        self._party_state: dict[int, PartyShiftReport] = {}
        self._bootstrap_flips: FlipsSelector | None = None
        self._cohort_flips: dict[int, FlipsSelector] = {}
        self.shift_log: list[dict] = []
        self._adapting_experts: set[int] = set()

    # ------------------------------------------------------------------ life cycle

    def setup(self, ctx: StrategyContext) -> None:
        super().setup(ctx)
        theta0 = ctx.model_factory().get_params()
        expert0 = self.registry.create(theta0, window=0)
        # Survey order: every party, or the seeded subset a survey cap
        # declares — ShiftEx tracks per-party expert assignments.
        self.assignments = {pid: expert0.expert_id for pid in ctx.party_ids}

    # -------------------------------------------------- window 0 (bootstrap, 4.1)

    def _fit_bootstrap_flips(self, window: int) -> None:
        ctx = self.context
        histograms = {pid: party.label_histogram()
                      for pid, party in ctx.iter_parties()}
        self._bootstrap_flips = FlipsSelector(
            max_clusters=self.config.flips_max_clusters
        ).fit(histograms, ctx.rng("flips-bootstrap", window))

    # -------------------------------------------------- detection (Alg. 1 driver)

    def _encoder_batches(self):
        """``(batch, embedded)`` per resident batch of the surveyed parties,
        in survey order: its ``(pid, party)`` pairs and their
        ``(embeddings, labels)`` under the frozen encoder.

        One grouped forward per batch, so at most ``max_resident`` parties'
        rows are read at once; each batch is yielded while still resident.
        """
        assert self._encoder is not None
        for batch in self.context.resident_batches():
            yield batch, embed_parties([party for _pid, party in batch],
                                       self._encoder, "train",
                                       self.config.embedding_samples)

    def _report_parties(self) -> dict[int, PartyShiftReport]:
        """Algorithm 1 for every surveyed party, in survey order: each
        party's report against its previous one (none in W0, so both deltas
        are zero), stored as the party's state for the next window."""
        gamma = None if self.thresholds is None else self.thresholds.gamma
        reports: dict[int, PartyShiftReport] = {}
        for batch, embedded in self._encoder_batches():
            pids = [pid for pid, _party in batch]
            batch_reports = dict(zip(pids, compute_party_report(
                [party for _pid, party in batch], embedded,
                [self._party_state.get(pid) for pid in pids], gamma=gamma)))
            self._party_state.update(batch_reports)
            reports.update(batch_reports)
        return reports

    def _collect_reports(self, window: int) -> dict[int, PartyShiftReport]:
        """This window's reports, metered as the statistics upload."""
        ctx = self.context
        reports = self._report_parties()
        sample = next(iter(reports.values()))
        ctx.ledger.record_statistics_upload(
            embedding_rows=sample.embeddings.shape[0],
            embedding_dim=sample.embeddings.shape[1],
            num_classes=ctx.spec.num_classes,
            num_parties=len(reports),
        )
        return reports

    def _shifted_parties(self, reports: dict[int, PartyShiftReport]) -> list[int]:
        assert self.thresholds is not None
        shifted = []
        for pid, report in reports.items():
            cov = report.delta_cov > self.thresholds.delta_cov
            label = (self.config.enable_label_detection
                     and report.delta_label > self.thresholds.delta_label)
            if cov or label:
                shifted.append(pid)
        return sorted(shifted)

    # -------------------------------------------------- Algorithm 2 main body

    def start_window(self, window: int) -> None:
        ctx = self.context
        self._finetuned = {}
        self._cohort_flips = {}
        self._adapting_experts = set()
        if window == 0:
            self._fit_bootstrap_flips(window)
            return
        if self._encoder is None or self.thresholds is None:
            raise RuntimeError("end_window(0) must run before later windows")

        reports = self._collect_reports(window)
        shifted = self._shifted_parties(reports)
        window_log = {
            "window": window,
            "num_shifted": len(shifted),
            "clusters": [],
            "merges": 0,
        }

        if shifted:
            centroids = np.stack([reports[pid].centroid for pid in shifted])
            k_cap = min(self.config.k_max, len(shifted))
            _k, clustering, _scores = select_num_clusters(
                centroids, ctx.rng("cluster", window), k_max=k_cap
            )
            groups = [
                [shifted[i] for i in clustering.members(cluster_index)]
                for cluster_index in range(clustering.num_clusters)
            ]
            groups = self._merge_same_regime_clusters(groups, reports)
            finetunes: dict[int, list] = {}
            for members in groups:
                if not members:
                    continue
                if len(members) >= self.config.min_cluster_size:
                    self._handle_large_cluster(window, members, reports,
                                               window_log)
                else:
                    self._handle_small_cluster(members, window_log, finetunes)
            config = replace(ctx.round_config.local, prox_mu=0.0,
                             epochs=self.config.finetune_epochs)
            for expert_id, trainees in finetunes.items():  # one stack per expert
                for update in train_parties(
                        trainees, self.registry.get(expert_id).flat,
                        config, ("finetune", window), [None] * len(trainees)):
                    self._finetuned[update.party_id] = update.params

        if self.config.enable_consolidation and len(self.registry) >= 2:
            events = consolidate_experts(
                self.registry, self.config.tau,
                ctx.rng("consolidate", window), self.assignments,
                self.thresholds)
            window_log["merges"] = len(events)
            for event in events:
                if self._adapting_experts & set(event.merged_ids):
                    self._adapting_experts -= set(event.merged_ids)
                    self._adapting_experts.add(event.new_id)

        self._fit_cohort_flips(window)
        self.shift_log.append(window_log)

    def _merge_same_regime_clusters(self, groups: list[list[int]],
                                    reports: dict[int, PartyShiftReport],
                                    ) -> list[list[int]]:
        """Fuse K-means fragments that represent the same covariate regime.

        Davies-Bouldin model selection can split one regime into several
        clusters when the shifted set is small and noisy; by the system's own
        standard, two clusters whose pooled embeddings are within the reuse
        threshold epsilon describe the same regime and must share one expert.
        Union-find over pairwise pooled MMD collapses such fragments.
        """
        groups = [g for g in groups if g]
        if len(groups) < 2:
            return groups
        pooled = [(np.vstack([reports[pid].embeddings for pid in g]),
                   np.concatenate([reports[pid].labels for pid in g]))
                  for g in groups]
        parent = list(range(len(groups)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(len(groups)), 2):
            score = class_conditional_mmd(*pooled[i], *pooled[j],
                                          self.thresholds.gamma)
            if score <= self.thresholds.epsilon:
                parent[find(j)] = find(i)
        merged: dict[int, list[int]] = {}
        for i, group in enumerate(groups):
            merged.setdefault(find(i), []).extend(group)
        return [sorted(g) for g in merged.values()]

    def _handle_large_cluster(self, window: int, members: list[int],
                              reports: dict[int, PartyShiftReport],
                              window_log: dict) -> None:
        """Match the cluster to an expert or create a new one (Alg. 2 l.13-26)."""
        ctx = self.context
        pooled = np.vstack([reports[pid].embeddings for pid in members])
        pooled_labels = np.concatenate([reports[pid].labels for pid in members])
        matched_id: int | None = None
        if self.config.enable_latent_memory:
            match = match_cluster_to_expert(
                pooled, self.registry, self.thresholds,
                self.config.memory_capacity, ctx.rng("match", window, members[0]),
                cluster_labels=pooled_labels,
            )
            if match.matched:
                matched_id = match.expert_id
        if matched_id is not None:
            expert = self.registry.get(matched_id)
            expert.memory.update(pooled, ctx.rng("memory", window, matched_id),
                                 labels=pooled_labels)
            action = "reuse"
        else:
            # CLONE(theta_0): the registry copies the bootstrap model in.
            expert = self.registry.create(
                self._encoder, window,
                embeddings=pooled,
                labels=pooled_labels,
                rng=ctx.rng("memory-new", window, len(self.registry)),
            )
            action = "create"
        for pid in members:
            self.assignments[pid] = expert.expert_id
        self._adapting_experts.add(expert.expert_id)
        window_log["clusters"].append({
            "size": len(members),
            "action": action,
            "expert": expert.expert_id,
        })

    def _handle_small_cluster(self, members: list[int], window_log: dict,
                              finetunes: dict[int, list]) -> None:
        """Clusters below gamma fine-tune their assigned expert locally: each
        member's train split joins its expert's ``finetunes`` (trained as
        one stack per expert before consolidation)."""
        for pid in members:
            party = self.context.parties[pid]
            finetunes.setdefault(self.assignments[pid], []).append(
                (party, *party.train_split()))
        window_log["clusters"].append({
            "size": len(members),
            "action": "finetune",
            "expert": None,
        })

    # -------------------------------------------------- per-expert FLIPS (5.2.3-4)

    def _cohorts(self) -> dict[int, list[int]]:
        cohorts: dict[int, list[int]] = {eid: [] for eid in self.registry.ids()}
        for pid, eid in self.assignments.items():
            cohorts.setdefault(eid, []).append(pid)
        return {eid: sorted(members) for eid, members in cohorts.items() if members}

    def _training_cohorts(self) -> dict[int, tuple[list[int], int]]:
        """Expert id -> (cohort, participants per round) for every cohort
        this window trains (``split_budget`` gives each at least one).

        Experts absorbing this window's shift get the full participant
        budget: stable cohorts' experts are converged, and retraining them
        with a sliver of the budget only adds aggregation variance.  When
        *no* shift fired this window, fall back to standard continual
        training of every cohort so experts keep tracking their (possibly
        slowly drifting) regimes.
        """
        cohorts = self._cohorts()
        adapting = {eid: members for eid, members in cohorts.items()
                    if eid in self._adapting_experts}
        if adapting:
            cohorts = adapting
        budget = split_budget({eid: len(m) for eid, m in cohorts.items()},
                              self.context.round_config.participants_per_round)
        return {eid: (cohorts[eid], k) for eid, k in budget.items()}

    def _fit_cohort_flips(self, window: int) -> None:
        ctx = self.context
        # Only the cohorts run_round draws from: a selector no round reads
        # is a k-means scan for nothing.  Each fit has its own stream.
        for eid, (members, _k) in self._training_cohorts().items():
            # This window's histograms, as _collect_reports just stored them:
            # asking the pool again would re-materialise evicted parties.
            histograms = {pid: self._party_state[pid].label_histogram
                          for pid in members}
            self._cohort_flips[eid] = FlipsSelector(
                max_clusters=self.config.flips_max_clusters
            ).fit(histograms, ctx.rng("flips", window, eid))

    # -------------------------------------------------- training rounds

    def run_round(self, window: int, round_index: int) -> None:
        ctx = self.context
        if window == 0:
            self._run_bootstrap_round(window, round_index)
            return
        for eid, (members, k) in self._training_cohorts().items():
            rng = ctx.rng("select", self.name, window, round_index, eid)
            participants = self._cohort_flips[eid].select(k, rng,
                                                          available=set(members))
            expert = self.registry.get(eid)
            new_params, stats = run_fl_round(
                ctx, participants, expert.flat,
                round_tag=(window, round_index, eid), stream=("expert", eid))
            expert.set_params(new_params)
            expert.train_rounds += 1
            expert.samples_seen += stats.total_samples

    def _run_bootstrap_round(self, window: int, round_index: int) -> None:
        ctx = self.context
        expert0 = self.registry.all()[0]
        k = min(ctx.round_config.participants_per_round, len(ctx.parties))
        participants = self._bootstrap_flips.select(
            k, ctx.rng("select", self.name, window, round_index))
        new_params, stats = run_fl_round(
            ctx, participants, expert0.flat,
            round_tag=(window, round_index),
            stream=("expert", expert0.expert_id))
        expert0.set_params(new_params)
        expert0.train_rounds += 1
        expert0.samples_seen += stats.total_samples

    # -------------------------------------------------- window close

    def end_window(self, window: int) -> None:
        ctx = self.context
        if window != 0:
            # Party states were refreshed when this window's reports were
            # collected; nothing further to close out.
            return
        expert0 = self.registry.all()[0]
        self._encoder = expert0.flat.copy()
        # W0's reports are each party's first snapshot: kept on-device, so
        # not metered.  No batch's embeddings outlive the call into the
        # calibration below (the run's peak).
        self._report_parties()
        states = self._party_state.values()
        pooled = np.vstack([s.embeddings for s in states])
        pooled_labels = np.concatenate([s.labels for s in states])
        expert0.memory.update(pooled, ctx.rng("memory-seed"),
                              labels=pooled_labels)
        calibrator = ThresholdCalibrator(
            num_bootstrap=self.config.num_bootstrap,
            p_value=self.config.p_value,
        )
        party_pools = [(s.embeddings, s.labels) for s in states]
        priors = np.stack([s.label_histogram for s in states])
        calibrated = calibrator.calibrate(
            party_pools, priors,
            window_sample_size=ctx.spec.train_per_window,
            rng=ctx.rng("calibration"),
        )
        if self.config.delta_cov is not None:
            calibrated = replace(calibrated, delta_cov=self.config.delta_cov)
        self.thresholds = calibrated

    # -------------------------------------------------- inference & reporting

    def params_for_party(self, party_id: int) -> np.ndarray:
        if party_id in self._finetuned:
            return self._finetuned[party_id]
        eid = self.assignments.get(party_id)
        if eid is None or eid not in self.registry:
            return self.registry.all()[0].flat
        return self.registry.get(eid).flat

    def expert_distribution(self) -> dict[int, int]:
        """Expert id -> number of assigned parties (Figures 7-8 series)."""
        counts: dict[int, int] = {eid: 0 for eid in self.registry.ids()}
        for eid in self.assignments.values():
            counts[eid] = counts.get(eid, 0) + 1
        return counts

    def describe_state(self) -> dict:
        thresholds = self.thresholds
        return {
            "num_models": len(self.registry),
            "experts_created": self.registry.created_total,
            "experts_merged": self.registry.merged_total,
            "distribution": self.expert_distribution(),
            "delta_cov": None if thresholds is None else thresholds.delta_cov,
            "delta_label": None if thresholds is None else thresholds.delta_label,
            "epsilon": None if thresholds is None else thresholds.epsilon,
        }
