"""Offline pseudo-labeling: anchored k-means, adaptive filtering, prototypes.

Labeled samples (plus optional strong-augmented copies of them) are permanent
anchors: they seed the centroids and always count toward their ground-truth
class during updates, so only unlabeled assignments ever move. Distances are
Euclidean on unit-normalized features and centroids are re-normalized after
every update, which keeps the clustering geometry aligned with the
dot-product prototype classifier.

Nearest-centroid search (``_nearest``) runs over row blocks. Each block is
screened with one GEMM, ||c||^2 - 2 f.c; rows whose runner-up lies within
the rounding-error bound of their best are decided again with the exact
per-pair difference sum, and the returned squared distance is always the
exact difference sum for the chosen centroid. The outputs therefore
equal, bit for bit, an argmin over the full (n, C, e) difference tensor, and
do not depend on BLAS rounding or thread count, while memory stays at one
block's (rows, C, e) tensor (``_BLOCK_BYTES``).

Filtering keeps an unlabeled sample only while its distance to the assigned
centroid stays within a per-class adaptive threshold: the class-local mean
distance, rescaled by the global mean over the largest local mean.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from . import augment, nn
from .errors import InvalidParameterError, MissingLabeledClassError

LOGGER = logging.getLogger(__name__)

_NORM_FLOOR = 1e-12

# Budget for one row block's (rows, C, e) float64 recheck tensor.
_BLOCK_BYTES = 4 << 20

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class ClusterConfig:
    max_iters: int = 100
    tol: float = 1e-6
    aug_copies: int = 3
    use_labeled_aug: bool = True
    use_adaptive_threshold: bool = True
    # "filtered": prototypes average anchors + threshold survivors.
    # "all": average anchors + every assigned unlabeled sample.
    prototype_members: str = "filtered"
    # "sskm": k-means anchored on the labeled samples; "km": plain k-means
    # (the SSL+KM ablation row).
    method: str = "sskm"

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")
        if self.aug_copies < 0:
            raise InvalidParameterError("aug_copies must be >= 0")
        if self.prototype_members not in ("filtered", "all"):
            raise InvalidParameterError("prototype_members must be 'filtered' or 'all'")
        if self.method not in ("sskm", "km"):
            raise InvalidParameterError("method must be 'sskm' or 'km'")


@dataclass
class ClusterResult:
    centroids: np.ndarray       # (C, e), unit rows
    assignments: np.ndarray     # (n_u,) class index per unlabeled sample
    distances: np.ndarray       # (n_u,) distance to assigned centroid
    iterations_run: int
    objective: float
    objective_trace: list = field(default_factory=list)
    monotonic: bool = True


@dataclass
class PseudoLabelSet:
    indices: np.ndarray         # kept positions within the unlabeled pool
    labels: np.ndarray          # pseudo-label per kept position
    tau_adapt: np.ndarray
    tau_global: float
    tau_local: np.ndarray
    coverage: float             # kept / total unlabeled
    n_unlabeled: int = 0

    def label_lookup(self) -> np.ndarray:
        """Dense (n_u,) array, -1 where the pseudo-label was discarded."""
        out = np.full(self.n_unlabeled, -1, dtype=np.int64)
        out[self.indices] = self.labels
        return out

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.labels, dtype=np.int64).tobytes())
        return h.hexdigest()


@dataclass
class PrototypeBank:
    rho: np.ndarray             # (C, e), unit rows
    counts: np.ndarray          # members averaged per class, pre-normalization
    build_epoch: int = -1

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.rho, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(self.counts, dtype=np.int64).tobytes())
        return h.hexdigest()


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), _NORM_FLOOR)


def _nearest(F: np.ndarray, centroids: np.ndarray):
    """Nearest centroid of every row of F and the squared distance to it.

    Equal, bit for bit, to ``d2 = einsum("ijk,ijk->ij", diff, diff)`` over
    ``diff = F[:, None] - centroids[None]`` followed by ``d2.argmin(axis=1)``
    and the gathered ``d2`` values (ties go to the lowest index).

    The screen drops ||f||^2, which is constant along a row. The screen and
    the exact sum each differ from their true values by at most about
    (e+2)·eps·(||f||^2 + ||c||^2) (Higham §3.1, any summation order), so
    ``slack`` below has a 4x margin, plus a term for underflow. A row whose
    runner-up screen value lies more than 2·slack above its best has a
    unique exact nearest centroid, the screened one. Every other row,
    including any with non-finite values, is decided by the exact sum.
    """
    n, e = F.shape
    C = centroids.shape[0]
    assign = np.empty(n, dtype=np.int64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    f_sq = np.einsum("ij,ij->i", F, F)
    slack = 8.0 * (e + 2) * (_EPS * (f_sq + c_sq.max()) + _TINY)
    minus_2c = -2.0 * centroids
    rows = max(1, _BLOCK_BYTES // (8 * C * e))
    for start in range(0, n, rows):
        block = F[start:start + rows]
        r = np.arange(block.shape[0])
        approx = block @ minus_2c.T
        approx += c_sq
        best = approx.argmin(axis=1)
        best_val = approx[r, best]
        approx[r, best] = np.inf
        gap = approx.min(axis=1) - best_val
        near = np.flatnonzero(~(gap > 2.0 * slack[start:start + rows]))
        if near.size:
            diff = block[near][:, None, :] - centroids[None, :, :]
            best[near] = np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)
        assign[start:start + rows] = best
    D = F - centroids[assign]
    return assign, np.einsum("ij,ij->i", D, D)


def extract_all_features(m: nn.EncoderModel, X_l: np.ndarray, X_u: np.ndarray,
                         cfg: ClusterConfig, rng: np.random.Generator,
                         aug: augment.AugmentConfig | None = None):
    """Features for labeled, unlabeled, and augmented-labeled samples.

    F_sl holds ``aug_copies`` strong-augmented copies of every labeled sample
    (empty when labeled-augmentation is off), stacked copy-major so its
    labels are np.tile(labels, copies).
    """
    if aug is None:
        aug = augment.AugmentConfig()
    F_l = nn.forward_features(m, X_l)
    F_u = nn.forward_features(m, X_u)
    copies = cfg.aug_copies if cfg.use_labeled_aug else 0
    if copies > 0:
        blocks = [augment.strong(X_l, aug, rng) for _ in range(copies)]
        F_sl = nn.forward_features(m, np.concatenate(blocks, axis=0))
    else:
        F_sl = np.zeros((0, m.feature_dim))
    return F_l, F_u, F_sl


def _anchor_sums(F_l, F_sl, labels, C):
    """Per-class feature sums and counts over anchors (labeled + copies)."""
    e = F_l.shape[1]
    sums = np.zeros((C, e))
    counts = np.zeros(C, dtype=np.int64)
    np.add.at(sums, labels, F_l)
    np.add.at(counts, labels, 1)
    if F_sl.shape[0]:
        if F_sl.shape[0] % labels.shape[0]:
            raise InvalidParameterError("F_sl rows must tile the labeled set")
        sl_labels = np.tile(labels, F_sl.shape[0] // labels.shape[0])
        np.add.at(sums, sl_labels, F_sl)
        np.add.at(counts, sl_labels, 1)
    return sums, counts


def ss_kmeans(F_l: np.ndarray, F_u: np.ndarray, F_sl: np.ndarray,
              labels: np.ndarray, cfg: ClusterConfig,
              num_classes: int | None = None) -> ClusterResult:
    """Lloyd iterations with labeled memberships pinned to ground truth.

    Centroids start at the per-class anchor means; each round assigns every
    unlabeled feature to its nearest centroid, then recomputes each centroid
    as the mean of its anchors plus its assigned unlabeled members,
    re-normalized to unit length. Stops when the largest centroid movement
    falls below ``tol`` or after ``max_iters`` rounds.
    """
    labels = np.asarray(labels, dtype=np.int64)
    C = num_classes if num_classes is not None else (int(labels.max()) + 1 if labels.size else 0)
    present = np.bincount(labels, minlength=C) > 0 if C else np.zeros(0, dtype=bool)
    if C == 0 or not present.all():
        raise MissingLabeledClassError("every class needs a labeled anchor")

    anchor_sums, anchor_counts = _anchor_sums(F_l, F_sl, labels, C)
    centroids = _unit_rows(anchor_sums / anchor_counts[:, None])

    n_u = F_u.shape[0]
    assign = np.zeros(n_u, dtype=np.int64)
    trace: list[float] = []
    monotonic = True
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        if n_u:
            assign, _ = _nearest(F_u, centroids)
        sums = anchor_sums.copy()
        counts = anchor_counts.astype(np.float64)
        if n_u:
            np.add.at(sums, assign, F_u)
            counts += np.bincount(assign, minlength=C)
        new_centroids = _unit_rows(sums / counts[:, None])

        obj = _constrained_objective(F_l, F_sl, labels, F_u, assign, new_centroids, C)
        if trace and obj > trace[-1] + 1e-9:
            monotonic = False
        trace.append(obj)

        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < cfg.tol:
            break

    if n_u:
        assign, d2 = _nearest(F_u, centroids)
        distances = np.sqrt(d2)
    else:
        distances = np.zeros(0)
    final_obj = _constrained_objective(F_l, F_sl, labels, F_u, assign, centroids, C)
    return ClusterResult(centroids=centroids, assignments=assign,
                         distances=distances, iterations_run=iterations,
                         objective=final_obj, objective_trace=trace,
                         monotonic=monotonic)


def _constrained_objective(F_l, F_sl, labels, F_u, assign, centroids, C):
    """Sum of squared distances with labeled memberships fixed."""
    obj = float(((F_l - centroids[labels]) ** 2).sum())
    if F_sl.shape[0]:
        sl_labels = np.tile(labels, F_sl.shape[0] // labels.shape[0])
        obj += float(((F_sl - centroids[sl_labels]) ** 2).sum())
    if F_u.shape[0]:
        obj += float(((F_u - centroids[assign]) ** 2).sum())
    return obj


def adaptive_thresholds(result: ClusterResult, C: int):
    """Per-class distance cutoffs from global and class-local mean distances.

    A class with no assigned unlabeled samples gets a local mean of 0 (no
    evidence, keeps nothing extra); callers log that case. If every local
    mean is zero the cutoffs all collapse to the global mean.
    """
    dist = result.distances
    if dist.size == 0:
        raise InvalidParameterError("adaptive thresholds need unlabeled samples")
    tau_global = float(dist.mean())
    tau_local = np.zeros(C)
    for c in range(C):
        members = dist[result.assignments == c]
        if members.size:
            tau_local[c] = members.mean()
        else:
            LOGGER.warning("no unlabeled samples assigned to class %d; "
                           "its local threshold is 0 (keeps nothing extra)", c)
    top = tau_local.max()
    if top > 0.0:
        tau_adapt = tau_local / top * tau_global
    else:
        tau_adapt = np.full(C, tau_global)
    return tau_global, tau_local, tau_adapt


def filter_pseudo_labels(result: ClusterResult, thresholds, cfg: ClusterConfig) -> PseudoLabelSet:
    """Keep assignments whose distance clears the class cutoff (or all)."""
    tau_global, tau_local, tau_adapt = thresholds
    n_u = result.assignments.shape[0]
    if cfg.use_adaptive_threshold:
        keep = result.distances <= tau_adapt[result.assignments]
    else:
        keep = np.ones(n_u, dtype=bool)
    idx = np.flatnonzero(keep)
    return PseudoLabelSet(indices=idx, labels=result.assignments[idx],
                          tau_adapt=tau_adapt, tau_global=tau_global,
                          tau_local=tau_local,
                          coverage=float(idx.size / n_u) if n_u else 0.0,
                          n_unlabeled=n_u)


def build_prototypes(F_l: np.ndarray, labels: np.ndarray, F_su: np.ndarray,
                     pseudo: PseudoLabelSet, build_epoch: int = -1) -> PrototypeBank:
    """One unit-norm prototype per class: mean of labeled features with that
    ground-truth label plus kept unlabeled features with that pseudo-label."""
    labels = np.asarray(labels, dtype=np.int64)
    C = pseudo.tau_adapt.shape[0]
    e = F_l.shape[1]
    sums = np.zeros((C, e))
    counts = np.zeros(C, dtype=np.int64)
    np.add.at(sums, labels, F_l)
    np.add.at(counts, labels, 1)
    if F_su.shape[0]:
        np.add.at(sums, pseudo.labels, F_su)
        np.add.at(counts, pseudo.labels, 1)
    if (counts == 0).any():
        raise MissingLabeledClassError("a class ended up with no prototype members")
    rho = _unit_rows(sums / counts[:, None])
    return PrototypeBank(rho=rho, counts=counts, build_epoch=build_epoch)


def pure_kmeans(F_l: np.ndarray, F_u: np.ndarray, labels: np.ndarray, C: int,
                cfg: ClusterConfig) -> ClusterResult:
    """Unanchored Lloyd's over all features (ablation baseline).

    Deterministic farthest-point initialization: the first center is the
    point farthest from the data mean, each next center the point farthest
    from its nearest chosen center. Clusters map to classes by majority vote
    of their labeled members (ties -> lowest class); label-free clusters take
    the lowest unclaimed class. Empty clusters reseed from the farthest point.
    """
    X = np.concatenate([F_l, F_u], axis=0)
    n_l = F_l.shape[0]
    n = X.shape[0]
    if n < C:
        raise InvalidParameterError("fewer samples than clusters")

    centers = np.empty((C, X.shape[1]))
    d_to_mean = np.linalg.norm(X - X.mean(axis=0), axis=1)
    centers[0] = X[d_to_mean.argmax()]
    mind = np.linalg.norm(X - centers[0], axis=1)
    for k in range(1, C):
        centers[k] = X[mind.argmax()]
        mind = np.minimum(mind, np.linalg.norm(X - centers[k], axis=1))

    assign = np.zeros(n, dtype=np.int64)
    trace: list[float] = []
    monotonic = True
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        assign, d2 = _nearest(X, centers)
        new_centers = np.empty_like(centers)
        for k in range(C):
            members = X[assign == k]
            if members.shape[0] == 0:
                far = np.sqrt(d2).argmax()
                new_centers[k] = X[far]
            else:
                new_centers[k] = members.mean(axis=0)
        new_centers = _unit_rows(new_centers)

        D = X - new_centers[assign]
        obj = float(np.einsum("ij,ij->i", D, D).sum())
        if trace and obj > trace[-1] + 1e-9:
            monotonic = False
        trace.append(obj)

        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < cfg.tol:
            break

    assign, d2 = _nearest(X, centers)

    cluster_to_class = _majority_map(assign[:n_l], labels, C)
    u_assign = cluster_to_class[assign[n_l:]]
    u_dist = np.sqrt(d2[n_l:])
    final_obj = float(d2.sum())
    return ClusterResult(centroids=centers[_inverse_or_identity(cluster_to_class, C)],
                         assignments=u_assign, distances=u_dist,
                         iterations_run=iterations, objective=final_obj,
                         objective_trace=trace, monotonic=monotonic)


def _majority_map(cluster_of_labeled: np.ndarray, labels: np.ndarray, C: int) -> np.ndarray:
    mapping = np.full(C, -1, dtype=np.int64)
    for k in range(C):
        votes = labels[cluster_of_labeled == k]
        if votes.size:
            counts = np.bincount(votes, minlength=C)
            mapping[k] = counts.argmax()  # argmax ties at lowest class index
    unclaimed = [c for c in range(C) if c not in set(mapping.tolist())]
    for k in range(C):
        if mapping[k] < 0:
            mapping[k] = unclaimed.pop(0) if unclaimed else 0
            LOGGER.warning("cluster %d has no labeled member; mapped to "
                           "class %d", k, mapping[k])
    return mapping


def _inverse_or_identity(mapping: np.ndarray, C: int) -> np.ndarray:
    """Reorder centroid rows by mapped class when the map is a bijection."""
    order = np.arange(C)
    if np.array_equal(np.sort(mapping), order):
        inv = np.empty(C, dtype=np.int64)
        inv[mapping] = order
        return inv
    return order
