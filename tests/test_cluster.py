import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aplt import augment, cluster, config, data, engine, nn
from aplt.errors import InvalidParameterError, MissingLabeledClassError
from oracle_lloyd import (anchored_lloyd, full_nearest, full_pure_kmeans,
                          full_ss_kmeans, plain_lloyd)

CFG = cluster.ClusterConfig()
AUG = augment.AugmentConfig()


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_instance(rng, n_l=6, n_u=8, C=2, e=3):
    """Random unit features with every class anchored."""
    labels = np.concatenate([np.arange(C), rng.integers(0, C, size=n_l - C)])
    F_l = unit_rows(rng.normal(size=(n_l, e)))
    F_u = unit_rows(rng.normal(size=(n_u, e)))
    return F_l, F_u, labels


def assert_same_result(a, b):
    for name in ("centroids", "assignments", "distances", "objective_trace"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.iterations_run == b.iterations_run
    assert a.objective == b.objective
    assert a.monotonic == b.monotonic


class TestNearest:
    def check(self, F, centroids):
        assign, d2, lo2 = cluster._nearest(F, centroids)
        ref_assign, ref_d2 = full_nearest(F, centroids)
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(d2, ref_d2)
        # lo2 lies below the squared distance to every other centroid by
        # more than the rounding of either
        diff = F[:, None, :] - centroids[None, :, :]
        others = np.einsum("ijk,ijk->ij", diff, diff)
        others[np.arange(F.shape[0]), assign] = np.inf
        slack = cluster._slack(F.shape[1], np.einsum("ij,ij->i", F, F),
                               np.einsum("ij,ij->i", centroids, centroids))
        assert np.all(lo2 <= others.min(axis=1) - slack / 2)
        return assign, d2

    @pytest.mark.parametrize("seed", range(40))
    def test_random_shapes_and_scales_match_full_tensor(self, seed):
        rng = np.random.default_rng(500 + seed)
        e = int(rng.integers(1, 65))
        C = int(rng.integers(1, 121))
        n = int(rng.integers(1, 200))
        F = rng.normal(size=(n, e)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        centroids = rng.normal(size=(C, e)) * 10.0 ** rng.uniform(-3, 3)
        if seed % 2:
            F, centroids = unit_rows(F), unit_rows(centroids)
        self.check(F, centroids)

    def test_equidistant_row_takes_lower_index(self):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        F = np.array([[0.0, 0.0], [0.0, 1.0]])
        assign, d2 = self.check(F, centroids)
        assert assign.tolist() == [0, 0]
        assert d2.tolist() == [1.0, 2.0]
        assign, _ = self.check(F, centroids[[1, 0, 2]])
        assert assign.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_on_a_bisector_match_full_tensor(self, seed):
        # equidistant from two centroids in exact arithmetic, so rounding
        # decides; the screen alone often decides differently
        rng = np.random.default_rng(700 + seed)
        e = int(rng.integers(2, 40))
        C = int(rng.integers(2, 30))
        centroids = rng.normal(size=(C, e)) * 10.0 ** rng.uniform(-3, 3)
        a = rng.integers(0, C, size=200)
        b = (a + rng.integers(1, C, size=200)) % C
        u = centroids[a] - centroids[b]
        noise = rng.normal(size=(200, e)) * 0.1 * np.abs(centroids).mean()
        along = np.einsum("ij,ij->i", noise, u) / np.einsum("ij,ij->i", u, u)
        noise -= along[:, None] * u
        self.check((centroids[a] + centroids[b]) / 2 + noise, centroids)

    def test_duplicate_centroids_and_rows_on_a_centroid(self):
        rng = np.random.default_rng(11)
        base = unit_rows(rng.normal(size=(5, 8)))
        centroids = base[[0, 1, 1, 2, 3, 3, 4]]
        F = np.concatenate([base, base + 1e-9 * rng.normal(size=base.shape),
                            unit_rows(rng.normal(size=(50, 8)))])
        assign, d2 = self.check(F, centroids)
        assert assign[:5].tolist() == [0, 1, 3, 4, 6]
        assert d2[:5].tolist() == [0.0] * 5

    def test_all_tie_input_matches_full_tensor(self, monkeypatch):
        # every centroid is the same point, so every row goes to the recheck
        centroids = np.tile(unit_rows(np.ones((1, 6))), (9, 1))
        F = np.random.default_rng(2).normal(size=(300, 6))
        for budget in (cluster._BLOCK_BYTES, 1000):
            monkeypatch.setattr(cluster, "_BLOCK_BYTES", budget)
            assign, _ = self.check(F, centroids)
            assert not assign.any()

    @pytest.mark.parametrize("budget", [1, 1 << 12])
    def test_kmeans_independent_of_block_budget(self, monkeypatch, budget):
        rng = np.random.default_rng(41)
        F_l, F_u, labels = random_instance(rng, n_l=30, n_u=400, C=6, e=8)
        F_sl = unit_rows(rng.normal(size=(60, 8)))
        ss = cluster.ss_kmeans(F_l, F_u, F_sl, labels, CFG, num_classes=6)
        km = cluster.pure_kmeans(F_l, F_u, labels, 6, CFG)
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", budget)
        assert_same_result(cluster.ss_kmeans(F_l, F_u, F_sl, labels, CFG, num_classes=6), ss)
        assert_same_result(cluster.pure_kmeans(F_l, F_u, labels, 6, CFG), km)


def fuzz_instance(rng, C, n_u, e, kind):
    """Unit features with every class anchored. ``kind`` "bisector" puts
    unlabeled rows halfway between two anchor means, "duplicate" anchors
    some classes at the same point and repeats rows, "clustered" draws
    every row around one of C unit class means, as encoded features lie."""
    n_l = C + int(rng.integers(0, C + 1))
    labels = np.concatenate([np.arange(C), rng.integers(0, C, size=n_l - C)])
    F_l = unit_rows(rng.normal(size=(n_l, e)))
    F_u = unit_rows(rng.normal(size=(n_u, e)))
    if kind == "clustered":
        means = unit_rows(rng.normal(size=(C, e)))
        F_l = unit_rows(means[labels] + 0.25 * rng.normal(size=(n_l, e)))
        F_u = unit_rows(means[rng.integers(0, C, size=n_u)]
                        + 0.25 * rng.normal(size=(n_u, e)))
    elif kind == "bisector" and C > 1 and n_u:
        means = unit_rows(np.stack([F_l[labels == c].mean(axis=0) for c in range(C)]))
        a = rng.integers(0, C, size=n_u)
        b = (a + rng.integers(1, C, size=n_u)) % C
        F_u = (means[a] + means[b]) / 2
    elif kind == "duplicate":
        twin = rng.integers(0, C, size=C)
        F_l = F_l[np.where(labels < C // 2, labels, twin[labels])]
        if n_u:
            F_u = F_u[rng.integers(0, n_u, size=n_u)]
    return F_l, F_u, labels


def count_searched(monkeypatch) -> list:
    """The number of rows of each later ``_nearest`` call."""
    searched = []
    nearest = cluster._nearest

    def counting(F, centroids, rows=None):
        searched.append(F.shape[0] if rows is None else rows.size)
        return nearest(F, centroids, rows)

    monkeypatch.setattr(cluster, "_nearest", counting)
    return searched


def assert_stops_on_first_fixed_point(run, cfg):
    """``run(cfg)`` at tol=0 stops before max_iters, on the first round that
    moves no centre: one round fewer ends on the same centres, and two
    rounds fewer end elsewhere."""
    k = run(cfg).iterations_run
    assert 1 < k < cfg.max_iters
    ends = [run(replace(cfg, max_iters=i)).centroids for i in range(max(k - 2, 1), k + 1)]
    assert np.array_equal(ends[-2], ends[-1])
    assert k == 2 or not np.array_equal(ends[0], ends[-1])


class TestIncrementalLloyd:
    """The rounds redo only what changed, yet every output equals the
    full recompute of every round bit for bit. Seeds past the first 40 and
    25 are clustered rows at C >= 50, as on the bench, where the move bound
    spares some rows their search."""

    @pytest.mark.parametrize("seed", range(52))
    def test_ss_kmeans_equals_full_recompute(self, seed, monkeypatch):
        rng = np.random.default_rng(900 + seed)
        large = seed >= 40
        if large:
            C, e = int(rng.choice([50, 64, 100])), int(rng.integers(8, 33))
            n_u = int(rng.integers(300, 700))
        else:
            C = int(rng.choice([1, 2, 3, 7, 12, 30, 100]))
            e = int(rng.integers(1, 40))
            n_u = 0 if seed % 10 == 0 else int(rng.integers(1, 400))
        kind = "clustered" if large else ("plain", "bisector", "duplicate")[seed % 3]
        F_l, F_u, labels = fuzz_instance(rng, C, n_u, e, kind)
        copies = int(rng.integers(0, 3))
        F_sl = np.tile(F_l, (copies, 1))
        F_sl = unit_rows(F_sl + 0.1 * rng.normal(size=F_sl.shape))
        cfg = cluster.ClusterConfig(max_iters=1 if seed % 7 == 0 else 40,
                                    tol=0.0 if seed % 11 == 0 or (large and seed % 2) else 1e-6)
        searched = count_searched(monkeypatch)
        assert_same_result(cluster.ss_kmeans(F_l, F_u, F_sl, labels, cfg, num_classes=C),
                           full_ss_kmeans(F_l, F_u, F_sl, labels, cfg, C))
        if large and cfg.max_iters > 1:
            assert sum(searched) < n_u * len(searched)
        if cfg.tol == 0 and cfg.max_iters > 1:
            assert_stops_on_first_fixed_point(
                lambda c: cluster.ss_kmeans(F_l, F_u, F_sl, labels, c, num_classes=C), cfg)

    @pytest.mark.parametrize("seed", range(33))
    def test_pure_kmeans_equals_full_recompute(self, seed, monkeypatch):
        rng = np.random.default_rng(1300 + seed)
        large = seed >= 25
        if large:
            C, e = int(rng.choice([50, 64, 100])), int(rng.integers(8, 33))
            n_u = int(rng.integers(300, 700))
        else:
            C, e = int(rng.choice([1, 2, 5, 12, 40, 100])), int(rng.integers(1, 24))
            n_u = int(rng.integers(0, 300))
        F_l, F_u, labels = fuzz_instance(rng, C, n_u, e, "clustered" if large else
                                         ("plain", "bisector", "duplicate")[seed % 3])
        if seed % 4 == 1 and not large:
            # fewer distinct points than clusters: some start empty and reseed
            points = unit_rows(rng.normal(size=(max(1, C // 3), e)))
            F_l = points[rng.integers(0, points.shape[0], size=F_l.shape[0])]
            F_u = points[rng.integers(0, points.shape[0], size=F_u.shape[0])]
        cfg = cluster.ClusterConfig(max_iters=1 if seed % 6 == 0 else 40,
                                    tol=0.0 if large and seed % 2 else 1e-6)
        searched = count_searched(monkeypatch)
        assert_same_result(cluster.pure_kmeans(F_l, F_u, labels, C, cfg),
                           full_pure_kmeans(F_l, F_u, labels, C, cfg))
        if large and cfg.max_iters > 1:
            assert sum(searched) < (n_u + labels.size) * len(searched)
        if cfg.tol == 0 and cfg.max_iters > 1:
            assert_stops_on_first_fixed_point(
                lambda c: cluster.pure_kmeans(F_l, F_u, labels, C, c), cfg)

    def test_empty_clusters_reseed_as_in_full_recompute(self):
        # 8 clusters over 3 distinct points: 5 start empty
        rng = np.random.default_rng(5)
        points = unit_rows(rng.normal(size=(3, 4)))
        F_l = points[[0, 1, 2, 0, 1, 2, 0, 1]]
        labels = np.arange(8)
        F_u = points[rng.integers(0, 3, size=40)]
        cfg = cluster.ClusterConfig(max_iters=5)
        assert_same_result(cluster.pure_kmeans(F_l, F_u, labels, 8, cfg),
                           full_pure_kmeans(F_l, F_u, labels, 8, cfg))

    def test_rows_screened_shrink_after_round_one(self, monkeypatch):
        rng = np.random.default_rng(8)
        C, e, n_u = 12, 16, 3000
        means = unit_rows(rng.normal(size=(C, e)))
        labels = np.repeat(np.arange(C), 5)
        F_l = unit_rows(means[labels] + 0.3 * rng.normal(size=(labels.size, e)))
        F_u = unit_rows(means[rng.integers(0, C, size=n_u)] + 0.3 * rng.normal(size=(n_u, e)))
        screened = count_searched(monkeypatch)
        res = cluster.ss_kmeans(F_l, F_u, np.zeros((0, e)), labels, CFG, num_classes=C)
        assert res.iterations_run > 2
        assert screened[0] == n_u
        assert sum(screened) < (res.iterations_run + 1) * n_u
        assert max(screened[1:]) < n_u


class TestObjective:
    @pytest.mark.parametrize("seed", range(30))
    def test_is_the_flat_sum_of_squared_distances(self, seed):
        """Both k-means report the sum of every row's squared distance to
        its centre: an anchor's class centre, or a row's assigned one."""
        rng = np.random.default_rng(900 + seed)
        C, e, copies = int(rng.integers(2, 13)), int(rng.integers(1, 41)), seed % 3
        n_l, n_u = C + int(rng.integers(0, 20)), int(rng.integers(1, 2000))
        F_l, F_u, labels = random_instance(rng, n_l=n_l, n_u=n_u, C=C, e=e)
        F_l, F_u = (F * 10.0 ** rng.uniform(-3, 3) for F in (F_l, F_u))
        F_sl = np.tile(F_l, (copies, 1)) + 0.1 * rng.normal(size=(copies * n_l, e))

        res = cluster.ss_kmeans(F_l, F_u, F_sl, labels, CFG, num_classes=C)
        F = np.concatenate([F_l, F_sl, F_u])
        y = np.concatenate([np.tile(labels, 1 + copies), res.assignments])
        flat = float(((F - res.centroids[y]) ** 2).sum())
        assert res.objective == pytest.approx(flat, rel=1e-12)

        res = cluster.pure_kmeans(F_l, F_u, labels, C, CFG)
        X = np.concatenate([F_l, F_u])
        y = full_nearest(X, res.centroids)[0]
        flat = float(((X - res.centroids[y]) ** 2).sum())
        assert res.objective == pytest.approx(flat, rel=1e-12)


@pytest.mark.parametrize("ties", [False, True])
def test_kmeans_peak_memory_is_bounded(ties):
    """Clustering never allocates the (n, C, e) difference tensor: at this
    shape it alone would take 488 MiB."""
    n_u, C, e = 20000, 100, 32
    rng = np.random.default_rng(6)
    labels = np.arange(C)
    if ties:  # every class anchored at one point, every row on it
        F_l = np.tile(unit_rows(np.ones((1, e))), (C, 1))
        F_u = np.tile(F_l[:1], (n_u, 1))
    else:
        F_l = unit_rows(rng.normal(size=(C, e)))
        F_u = unit_rows(rng.normal(size=(n_u, e)))
    cfg = cluster.ClusterConfig(max_iters=2)
    tracemalloc.start()
    try:
        cluster.ss_kmeans(F_l, F_u, np.zeros((0, e)), labels, cfg, num_classes=C)
        cluster.pure_kmeans(F_l, F_u, labels, C, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestExtractAllFeatures:
    def make(self, K):
        ds = data.generate_synthetic(2, 4, 10, 0.1, seed=0)
        ds = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.5, seed=0))
        m = nn.EncoderModel.init(4, 8, 3, 2, np.random.default_rng(1))
        cfg = cluster.ClusterConfig(aug_copies=K)
        return ds.features, ds.labeled_indices(), ds.unlabeled_indices(), m, cfg

    def test_no_copies_gives_empty_augmented_set(self):
        X, lab, unl, m, cfg = self.make(K=0)
        _, _, F_sl = cluster.extract_all_features(m, X, lab, unl, cfg,
                                                  np.random.default_rng(2), AUG)
        assert F_sl.shape[0] == 0

    def test_flag_off_gives_empty_augmented_set(self):
        # an ablation row without +LA clusters with no augmented copies
        X, lab, unl, m, _ = self.make(K=3)
        cfg = engine._row_config(config.RunConfig(), "SSL+SSKM(S)+SAT").cluster
        _, _, F_sl = cluster.extract_all_features(m, X, lab, unl, cfg,
                                                  np.random.default_rng(2), AUG)
        assert F_sl.shape[0] == 0

    def test_copy_count(self):
        X, lab, unl, m, cfg = self.make(K=3)
        F_l, F_u, F_sl = cluster.extract_all_features(m, X, lab, unl, cfg,
                                                      np.random.default_rng(2), AUG)
        assert F_l.shape[0] == 10
        assert F_u.shape[0] == 10
        assert F_sl.shape[0] == 30

    def test_identical_rng_identical_copies(self):
        X, lab, unl, m, cfg = self.make(K=2)
        a = cluster.extract_all_features(m, X, lab, unl, cfg, np.random.default_rng(7), AUG)[2]
        b = cluster.extract_all_features(m, X, lab, unl, cfg, np.random.default_rng(7), AUG)[2]
        assert np.array_equal(a, b)


class TestSsKmeans:
    def test_no_unlabeled_converges_immediately_to_class_means(self):
        rng = np.random.default_rng(0)
        F_l, _, labels = random_instance(rng, n_l=8, n_u=0, C=2)
        res = cluster.ss_kmeans(F_l, np.zeros((0, 3)), np.zeros((0, 3)), labels, CFG,
                                num_classes=2)
        assert res.iterations_run == 1
        expected = unit_rows(np.stack([F_l[labels == c].mean(axis=0)
                                       for c in range(2)]))
        assert np.abs(res.centroids - expected).max() < 1e-12

    def test_single_point_goes_to_nearest_centroid(self):
        F_l = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([0, 1])
        F_u = np.array([[0.9, 0.0]])
        res = cluster.ss_kmeans(F_l, F_u, np.zeros((0, 2)), labels, CFG, num_classes=2)
        assert res.assignments.tolist() == [0]

    def test_missing_anchor_class_rejected(self):
        F_l = np.array([[1.0, 0.0]])
        with pytest.raises(MissingLabeledClassError):
            cluster.ss_kmeans(F_l, np.zeros((0, 2)), np.zeros((0, 2)),
                              np.array([0]), CFG, num_classes=2)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_straight_line_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_u = int(rng.integers(1, 9))
        F_l, F_u, labels = random_instance(rng, n_l=5, n_u=n_u, C=2)
        F_sl = unit_rows(rng.normal(size=(10, 3))) if seed % 3 == 0 else np.zeros((0, 3))
        res = cluster.ss_kmeans(F_l, F_u, F_sl, labels, CFG, num_classes=2)
        o_assign, o_dist, o_centroids, o_obj, o_iters = anchored_lloyd(
            F_l, F_u, F_sl, labels, 2, CFG.max_iters, CFG.tol)
        assert np.array_equal(res.assignments, o_assign)
        assert np.abs(res.distances - o_dist).max() < 1e-9
        assert np.abs(res.centroids - o_centroids).max() < 1e-9
        assert res.objective == pytest.approx(o_obj, rel=1e-9, abs=1e-12)
        assert res.iterations_run == o_iters

    def test_objective_trace_recorded(self):
        rng = np.random.default_rng(3)
        F_l, F_u, labels = random_instance(rng, n_l=6, n_u=20, C=2)
        res = cluster.ss_kmeans(F_l, F_u, np.zeros((0, 3)), labels, CFG, num_classes=2)
        assert len(res.objective_trace) == res.iterations_run


class TestAdaptiveThresholds:
    def two_class_result(self):
        # class 0 distances (2, 2), class 1 distances (4, 4):
        # tau_local = (2, 4), tau_global = 3
        return cluster.ClusterResult(
            centroids=np.eye(2), assignments=np.array([0, 0, 1, 1]),
            distances=np.array([2.0, 2.0, 4.0, 4.0]),
            iterations_run=1, objective=0.0)

    def test_hand_evaluated_case(self):
        tau_global, tau_local, tau_adapt = cluster.adaptive_thresholds(
            self.two_class_result(), 2)
        assert tau_global == pytest.approx(3.0, abs=1e-12)
        assert tau_local.tolist() == [2.0, 4.0]
        assert tau_adapt[0] == pytest.approx(1.5, abs=1e-12)
        assert tau_adapt[1] == pytest.approx(3.0, abs=1e-12)

    def test_single_class_gets_global(self):
        res = cluster.ClusterResult(
            centroids=np.eye(1), assignments=np.zeros(3, dtype=int),
            distances=np.array([1.0, 2.0, 3.0]), iterations_run=1, objective=0.0)
        tau_global, _, tau_adapt = cluster.adaptive_thresholds(res, 1)
        assert tau_adapt[0] == pytest.approx(tau_global, abs=1e-12)

    def test_bound_and_equality_at_argmax(self):
        tau_global, tau_local, tau_adapt = cluster.adaptive_thresholds(
            self.two_class_result(), 2)
        assert np.all(tau_adapt <= tau_global + 1e-12)
        assert tau_adapt[tau_local.argmax()] == pytest.approx(tau_global)

    def test_fuzzed_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            C = int(rng.integers(1, 6))
            n = int(rng.integers(1, 40))
            res = cluster.ClusterResult(
                centroids=np.zeros((C, 2)),
                assignments=rng.integers(0, C, size=n),
                distances=rng.exponential(size=n),
                iterations_run=1, objective=0.0)
            tau_global, tau_local, tau_adapt = cluster.adaptive_thresholds(res, C)
            assert np.all(tau_adapt >= 0.0)
            assert np.all(tau_adapt <= tau_global + 1e-12)

    def test_empty_class_gets_zero_local(self):
        res = cluster.ClusterResult(
            centroids=np.eye(3), assignments=np.array([0, 0]),
            distances=np.array([1.0, 3.0]), iterations_run=1, objective=0.0)
        _, tau_local, tau_adapt = cluster.adaptive_thresholds(res, 3)
        assert tau_local[1] == 0.0 and tau_local[2] == 0.0
        assert tau_adapt[1] == 0.0 and tau_adapt[2] == 0.0


class TestFilterPseudoLabels:
    def test_zero_distances_keep_everything(self):
        res = cluster.ClusterResult(
            centroids=np.eye(2), assignments=np.array([0, 1, 1]),
            distances=np.zeros(3), iterations_run=1, objective=0.0)
        thresholds = cluster.adaptive_thresholds(res, 2)
        kept = cluster.filter_pseudo_labels(res, thresholds, CFG)
        assert kept.coverage == 1.0
        assert kept.indices.tolist() == [0, 1, 2]

    def test_comparison_boundary(self):
        res = cluster.ClusterResult(
            centroids=np.eye(1), assignments=np.zeros(3, dtype=int),
            distances=np.array([1.0, 2.9, 3.1]), iterations_run=1, objective=0.0)
        thresholds = (3.0, np.array([3.0]), np.array([3.0]))
        kept = cluster.filter_pseudo_labels(res, thresholds, CFG)
        assert kept.indices.tolist() == [0, 1]

    def test_keeps_exactly_the_rows_within_tau_adapt(self):
        # hand-made thresholds: neither tau_local nor tau_global keeps these rows
        res = cluster.ClusterResult(
            centroids=np.eye(2), assignments=np.array([0, 0, 0, 1, 1, 1]),
            distances=np.array([0.5, 1.0, 1.5, 1.5, 2.0, 2.5]), iterations_run=1,
            objective=0.0)
        thresholds = (1.75, np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        kept = cluster.filter_pseudo_labels(res, thresholds, CFG)
        assert kept.indices.tolist() == [0, 1, 3, 4]
        assert kept.labels.tolist() == [0, 0, 1, 1]
        assert kept.coverage == 4 / 6

    def test_flag_off_keeps_all(self):
        cfg = cluster.ClusterConfig(use_adaptive_threshold=False)
        res = cluster.ClusterResult(
            centroids=np.eye(1), assignments=np.zeros(4, dtype=int),
            distances=np.array([9.0, 9.0, 9.0, 0.1]), iterations_run=1,
            objective=0.0)
        thresholds = cluster.adaptive_thresholds(res, 1)
        kept = cluster.filter_pseudo_labels(res, thresholds, cfg)
        assert kept.coverage == 1.0

    def test_filter_soundness(self):
        rng = np.random.default_rng(21)
        res = cluster.ClusterResult(
            centroids=np.zeros((3, 2)), assignments=rng.integers(0, 3, size=50),
            distances=rng.exponential(size=50), iterations_run=1, objective=0.0)
        thresholds = cluster.adaptive_thresholds(res, 3)
        kept = cluster.filter_pseudo_labels(res, thresholds, CFG)
        tau_adapt = thresholds[2]
        kept_set = set(kept.indices.tolist())
        for i in range(50):
            within = res.distances[i] <= tau_adapt[res.assignments[i]]
            assert (i in kept_set) == within


class TestClassSums:
    @pytest.mark.parametrize("seed", range(30))
    def test_mean_equals_per_class_loop_bit_for_bit(self, seed):
        # the per-class members.mean(axis=0) loop the sums replace
        rng = np.random.default_rng(seed)
        C, e = int(rng.integers(1, 8)), int(rng.integers(2, 40))
        X = rng.normal(size=(int(rng.integers(1, 300)), e))
        y = rng.integers(0, C, size=X.shape[0])
        sums, counts = cluster._class_sums(C, e, (X, y))
        for k in range(C):
            members = X[y == k]
            assert counts[k] == members.shape[0]
            if members.shape[0]:
                assert np.array_equal(sums[k] / counts[k], members.mean(axis=0))

    def test_blocks_add_in_order(self):
        a, b = np.array([[1.0, 2.0]]), np.array([[3.0, 5.0], [7.0, 11.0]])
        sums, counts = cluster._class_sums(2, 2, (a, [1]), (b, [1, 0]),
                                           (np.zeros((0, 2)), np.zeros(0)))
        assert sums.tolist() == [[7.0, 11.0], [4.0, 7.0]]
        assert counts.tolist() == [1, 2]

    @pytest.mark.parametrize("seed", range(40))
    def test_add_by_class_equals_sequential_loop(self, seed):
        rng = np.random.default_rng(seed)
        C, e, n = int(rng.integers(1, 9)), int(rng.integers(1, 4)), int(rng.integers(0, 80))
        if seed % 4 == 0:
            e = 1
        y = rng.integers(0, max(1, C - 2), size=n)  # the top classes stay empty
        F = rng.normal(size=(n, e)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        start = rng.normal(size=(C, e)) * 10.0 ** rng.integers(-8, 9, size=(C, 1))
        expected = start.copy()
        for i in range(n):
            expected[y[i]] = expected[y[i]] + F[i]
        sums = start.copy()
        counts = cluster._add_by_class(sums, y, F)
        assert sums.tobytes() == expected.tobytes()
        assert counts.tolist() == np.bincount(y, minlength=C).tolist()

    @pytest.mark.parametrize("items", [1, 7, 64])
    def test_add_by_class_in_blocks_of_picked_rows(self, monkeypatch, items):
        rng = np.random.default_rng(items)
        C, e = 5, 3
        F = rng.normal(size=(60, e))
        rows = rng.permutation(60)[:45]
        y = rng.integers(0, C, size=rows.size)
        expected = rng.normal(size=(C, e))
        sums = expected.copy()
        np.add.at(expected, y, F[rows])
        monkeypatch.setattr(cluster, "_SUM_ITEMS", items)
        counts = cluster._add_by_class(sums, y, F, rows)
        assert sums.tobytes() == expected.tobytes()
        assert counts.tolist() == np.bincount(y, minlength=C).tolist()


class TestBuildPrototypes:
    def test_single_member_is_its_normalized_feature(self):
        F_l = np.array([[3.0, 0.0], [0.0, 0.2]])
        labels = np.array([0, 1])
        bank = cluster.build_prototypes(F_l, labels, np.zeros((0, 2)),
                                        np.zeros(0, dtype=int), 2)
        assert np.abs(bank.rho[0] - [1.0, 0.0]).max() < 1e-12
        assert np.abs(bank.rho[1] - [0.0, 1.0]).max() < 1e-12
        assert bank.counts.tolist() == [1, 1]

    def test_two_member_hand_value(self):
        F_l = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([0, 0, 1])
        bank = cluster.build_prototypes(F_l, labels, np.zeros((0, 2)),
                                        np.zeros(0, dtype=int), 2)
        assert np.abs(bank.rho[0] - [1 / np.sqrt(2), 1 / np.sqrt(2)]).max() < 1e-12

    def test_mean_fixed_point(self):
        F_l = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        bank = cluster.build_prototypes(F_l, labels, np.zeros((0, 2)),
                                        np.zeros(0, dtype=int), 2)
        again = cluster.build_prototypes(F_l, labels, bank.rho[:1].copy(),
                                         np.array([0]), 2)
        assert np.abs(again.rho[0] - bank.rho[0]).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        C, e = 3, 4
        n_l, n_u = 9, 20
        labels = np.concatenate([np.arange(C), rng.integers(0, C, size=n_l - C)])
        F_l = unit_rows(rng.normal(size=(n_l, e)))
        F_u = unit_rows(rng.normal(size=(n_u, e)))
        kept = np.flatnonzero(rng.random(n_u) < 0.6)
        pl = rng.integers(0, C, size=kept.size)
        bank = cluster.build_prototypes(F_l, labels, F_u[kept], pl, C)
        for c in range(C):
            members = [F_l[i] for i in range(n_l) if labels[i] == c]
            members += [F_u[kept[j]] for j in range(kept.size) if pl[j] == c]
            expected = np.mean(members, axis=0)
            expected = expected / np.linalg.norm(expected)
            assert np.abs(bank.rho[c] - expected).max() < 1e-12
            assert bank.counts[c] == len(members)


class TestPureKmeans:
    def test_recovers_distinct_points(self):
        F = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        labels = np.arange(3)
        res = cluster.pure_kmeans(F, np.zeros((0, 2)), labels, 3,
                                  cluster.ClusterConfig())
        assert res.assignments.shape == (0,)
        assert res.iterations_run >= 1
        # one cluster per point; after the class mapping, centroid c is the
        # point labeled c
        assert np.abs(res.centroids - F).max() < 1e-12

    def test_label_free_cluster_takes_lowest_unclaimed_class(self, caplog):
        # all labels sit on the right; the left cluster has none and must
        # fall back to the lowest unclaimed class index
        F_l = unit_rows(np.array([[1.0, 0.05], [1.0, -0.05]]))
        labels = np.array([0, 0])
        F_u = unit_rows(np.array([[-1.0, 0.05], [-1.0, -0.05]]))
        with caplog.at_level("WARNING", logger="aplt.cluster"):
            res = cluster.pure_kmeans(F_l, F_u, labels, 2,
                                      cluster.ClusterConfig())
        assert res.assignments.tolist() == [1, 1]
        assert "no labeled member" in caplog.text

    def test_unlabeled_inherits_majority_class(self):
        F_l = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([1, 0])  # class 1 on the right, class 0 on the left
        F_u = np.array([[0.95, 0.05], [-0.9, 0.1]])
        res = cluster.pure_kmeans(F_l, unit_rows(F_u), labels, 2,
                                  cluster.ClusterConfig())
        assert res.assignments.tolist() == [1, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_matches_plain_lloyd_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        F_l, F_u, labels = random_instance(rng, n_l=4, n_u=4, C=2)
        cfg = cluster.ClusterConfig()
        res = cluster.pure_kmeans(F_l, F_u, labels, 2, cfg)
        X = np.concatenate([F_l, F_u])
        o_assign, o_centers, o_obj, o_iters = plain_lloyd(X, 2, cfg.max_iters, cfg.tol)
        assert res.objective == pytest.approx(o_obj, rel=1e-9, abs=1e-12)
        assert res.iterations_run == o_iters


def test_anchor_stability_and_soft_monotonicity():
    """Anchors never move class; the constrained objective is non-increasing
    up to the re-normalization slack (violations only logged, not fatal)."""
    rng = np.random.default_rng(77)
    for _ in range(10):
        F_l, F_u, labels = random_instance(rng, n_l=8, n_u=30, C=3, e=4)
        res = cluster.ss_kmeans(F_l, F_u, np.zeros((0, 4)), labels, CFG, num_classes=3)
        # anchors enter every update under their ground-truth class by
        # construction; their nearest centroid after convergence is almost
        # always their own class, but the hard guarantee is membership
        assert res.monotonic or len(res.objective_trace) > 1
        diffs = np.diff(res.objective_trace)
        if res.monotonic:
            assert np.all(diffs <= 1e-9)
