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
block's (rows, C, e) tensor (``_BLOCK_BYTES``). A subset of rows is
searched by index, one gathered block at a time.

The Lloyd loop (``_lloyd``) redoes only what changed in a round: it sums
again only the classes whose membership changed, and searches again only
the rows whose distance bounds allow a new nearest centroid (one lower
bound per row, lowered by the largest move of any centroid). The anchors'
share of the objective is summed afresh each round. Its results equal a
full recompute of every round bit for bit.

Filtering keeps an unlabeled sample only while its distance to the assigned
centroid stays within a per-class adaptive threshold: the class-local mean
distance, rescaled by the global mean over the largest local mean.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment, nn
from .errors import InvalidParameterError, MissingLabeledClassError

LOGGER = logging.getLogger(__name__)

# Budget for one row block's (rows, C, e) float64 recheck tensor.
_BLOCK_BYTES = 4 << 20

# Values per block of the row-wise work in a Lloyd round (class sums and
# squared distances, ``_sq_dists``). Blocks this small reuse freed heap
# memory, where whole-array temporaries were mapped and faulted in afresh.
_SUM_ITEMS = 1 << 14

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# A coordinate below 2**-537 squares to less than the smallest subnormal, so
# a norm computed from such squares can be short by sqrt(e)·2**-537.
_MOVE_FLOOR = 2.0 ** -536


@dataclass(frozen=True)
class ClusterConfig:
    max_iters: int = 100
    tol: float = 1e-6
    aug_copies: int = 3
    use_adaptive_threshold: bool = True
    # "sskm": k-means anchored on the labeled samples; "km": plain k-means
    # (the SSL+KM ablation row).
    method: str = "sskm"

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")
        if not self.tol >= 0:
            raise InvalidParameterError("tol must be >= 0")
        if self.aug_copies < 0:
            raise InvalidParameterError("aug_copies must be >= 0")
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
    n_unlabeled: int

    @property
    def coverage(self) -> float:
        """Kept / total unlabeled, 0.0 with no unlabeled rows."""
        return self.indices.size / self.n_unlabeled if self.n_unlabeled else 0.0

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
    return a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), nn._NORM_FLOOR)


def _nearest(F: np.ndarray, centroids: np.ndarray, rows: np.ndarray | None = None):
    """Nearest centroid of every row of F (of F[rows], in that order), the
    squared distance to it, and a lower bound on the squared distance to
    every other centroid.

    The first two equal, bit for bit, ``d2 = einsum("ijk,ijk->ij", diff,
    diff)`` over ``diff = F[:, None] - centroids[None]`` followed by
    ``d2.argmin(axis=1)`` and the gathered ``d2`` values (ties go to the
    lowest index).

    The screen drops ||f||^2, which is constant along a row. The screen and
    the exact sum each differ from their true values by at most about
    (e+2)·eps·(||f||^2 + ||c||^2) (Higham §3.1, any summation order), so
    ``slack`` below has a 4x margin, plus a term for underflow. A row whose
    runner-up screen value lies more than 2·slack above its best has a
    unique exact nearest centroid, the screened one. Every other row,
    including any with non-finite values, is decided by the exact sum. The
    lower bound is the smallest screen value among the other centroids plus
    ||f||^2, less ``slack`` (inf with one centroid). ``rows`` are gathered
    one block at a time.
    """
    e = F.shape[1]
    n = F.shape[0] if rows is None else rows.size
    C = centroids.shape[0]
    assign = np.empty(n, dtype=np.int64)
    d2 = np.empty(n)
    lower = np.empty(n)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    minus_2c = -2.0 * centroids
    step = max(1, _BLOCK_BYTES // (8 * C * e))
    for start in range(0, n, step):
        part = slice(start, start + step)
        block = F[part] if rows is None else F[rows[part]]
        f_sq = np.einsum("ij,ij->i", block, block)
        slack = _slack(e, f_sq, c_sq)
        r = np.arange(block.shape[0])
        approx = block @ minus_2c.T
        approx += c_sq
        best = approx.argmin(axis=1)
        best_val = approx[r, best]
        approx[r, best] = np.inf
        second = approx.min(axis=1)
        near = np.flatnonzero(~(second - best_val > 2.0 * slack))
        if near.size:
            diff = block[near][:, None, :] - centroids[None, :, :]
            exact = np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)
            # where the exact sum picks another centroid, the screened best
            # is among the others
            moved = near[exact != best[near]]
            second[moved] = best_val[moved]
            best[near] = exact
        assign[part] = best
        lower[part] = second + f_sq - slack
        d2[part] = _sq_dists(block, centroids, best)
    return assign, d2, lower


def _slack(e: int, f_sq: np.ndarray, c_sq: np.ndarray) -> np.ndarray:
    """Per-row bound on the rounding error of a squared distance (see
    ``_nearest``)."""
    return 8.0 * (e + 2) * (_EPS * (f_sq + c_sq.max()) + _TINY)


def extract_all_features(m: nn.EncoderModel, X: np.ndarray, labeled: np.ndarray,
                         unlabeled: np.ndarray, cfg: ClusterConfig, rng: np.random.Generator,
                         aug: augment.AugmentConfig):
    """Features of the labeled rows X[labeled], of the unlabeled rows
    X[unlabeled] and of augmented copies of the labeled rows.

    F_sl holds ``aug_copies`` strong-augmented copies of every labeled row
    (empty when ``aug_copies`` is 0), stacked copy-major so its labels are
    np.tile(labels, aug_copies). Every set is encoded in row blocks
    (``nn.encode_rows``), each copy into its own slice of F_sl.
    """
    F_l = nn.encode_rows(m, X, labeled)
    F_u = nn.encode_rows(m, X, unlabeled)
    n_l = F_l.shape[0]
    F_sl = np.empty((cfg.aug_copies * n_l, m.feature_dim))
    if cfg.aug_copies > 0:
        X_l = X[labeled]
        for k in range(cfg.aug_copies):
            F_sl[k * n_l:(k + 1) * n_l] = nn.encode_rows(m, augment.strong(X_l, aug, rng))
    return F_l, F_u, F_sl


def _add_by_class(sums: np.ndarray, y: np.ndarray, F: np.ndarray,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Adds every row F[rows[i]] (F[i] without ``rows``) into sums[y[i]],
    in order, and returns the per-class row counts.

    Bit for bit ``np.add.at(sums, y, F[rows])``: ``np.bincount`` adds its
    weights one at a time in array order, so with each class's running sum
    placed ahead of its rows every (class, column) total is one sequential
    sum that starts from that running sum (a running sum of -0.0 restarts
    as +0.0, which no sum that starts from zeros can reach).
    ``np.add.reduce`` and ``np.add.reduceat`` would sum in another order.
    Rows go in blocks of about ``_SUM_ITEMS`` values, so no temporary grows
    with F.
    """
    C, e = sums.shape
    y = np.asarray(y, dtype=np.int64)
    step = _row_step(e)
    for start in range(0, y.size, step):
        part = slice(start, start + step)
        block = F[part] if rows is None else F[rows[part]]
        cells = np.add.outer(np.concatenate([np.arange(C), y[part]]) * e, np.arange(e))
        sums[...] = np.bincount(cells.ravel(), np.concatenate([sums, block]).ravel(),
                                minlength=C * e).reshape(C, e)
    return np.bincount(y, minlength=C)


def _row_step(e: int) -> int:
    """Rows per block of about ``_SUM_ITEMS`` values."""
    return max(1, _SUM_ITEMS // e)


def _sq_dists(F: np.ndarray, centers: np.ndarray, y: np.ndarray,
              rows: np.ndarray | None = None) -> np.ndarray:
    """Squared distance of every row F[rows[i]] (F[i] without ``rows``) to
    centers[y[i]], as ``einsum("ij,ij->i", D, D)`` over the differences D,
    in blocks of ``_row_step`` rows."""
    out = np.empty(y.size)
    step = _row_step(F.shape[1])
    for start in range(0, y.size, step):
        part = slice(start, start + step)
        D = (F[part] if rows is None else F[rows[part]]) - centers[y[part]]
        out[part] = np.einsum("ij,ij->i", D, D)
    return out


def _class_sums(C: int, e: int, *blocks):
    """Per-class feature sums and member counts over (features, labels)
    blocks, adding rows in block order."""
    sums = np.zeros((C, e))
    counts = np.zeros(C, dtype=np.int64)
    for F, y in blocks:
        counts += _add_by_class(sums, y, F)
    return sums, counts


def _lloyd(F: np.ndarray, centers: np.ndarray, anchors: tuple, base: tuple,
           cfg: ClusterConfig) -> ClusterResult:
    """Lloyd rounds over the rows of F, starting from ``centers``.

    Each round assigns every row to its nearest centre, then moves every
    centre to the unit-normalized mean of its anchors, the rows of the
    (features, labels) blocks in ``anchors``, plus its assigned rows; a
    centre with neither restarts at the row farthest from its own centre.
    ``base`` is the anchors' ``_class_sums``.
    The objective, traced on the new centres, is the sum over anchor blocks
    of their rows' squared distances to their class centre, plus that of
    d2, each row's squared distance to its centre (``_sq_dists`` for both);
    a rise of more than 1e-9 over the previous round clears ``monotonic``.
    Stops when no centre moves or the largest movement falls below
    ``tol``, or after ``max_iters`` rounds, and returns the final
    nearest-centre assignment of every row of F and the objective on it.

    Every output equals, bit for bit, a full recompute of every round:
    - Only classes whose membership changed are summed again (or empty
      ones). Any other class would sum the same rows in the same order, so
      its centre keeps its exact bits and moves 0.
    - d2 is recomputed only for rows whose assignment or centre changed.
    - A row is searched again only when the centres moved and its bounds do
      not rule out a change (Hamerly, SDM 2010). ``up`` bounds its distance
      to its own centre from d2, ``lo`` its distance to every other centre:
      set by the search and lowered since by the largest move of any
      centre. Both are padded outward for rounding, and so is the move.
      With lo² − up² > 2·slack the exact sums of ``_nearest`` cannot
      reorder, so its answer would be the current one.
    """
    C, e = centers.shape
    base_sums, base_counts = base
    f_sq = np.einsum("ij,ij->i", F, F)
    assign, d2, lo2 = _nearest(F, centers)
    lo = _sqrt_down(lo2)
    counts = base_counts.copy()
    touched = np.ones(C, dtype=bool)  # classes whose membership changed
    trace: list[float] = []
    monotonic = True
    for iterations in range(1, cfg.max_iters + 1):
        stale = touched | (counts == 0)
        classes = np.flatnonzero(stale)
        members = np.flatnonzero(stale[assign])
        sums = base_sums[classes]
        slot = np.cumsum(stale) - 1  # class -> its position in classes
        counts[classes] = base_counts[classes] + _add_by_class(
            sums, slot[assign[members]], F, members)
        means = sums / np.maximum(counts[classes], 1)[:, None]
        empty = counts[classes] == 0
        if empty.any():
            means[empty] = F[np.sqrt(d2).argmax()]
        new_centers = centers.copy()
        new_centers[classes] = _unit_rows(means)
        d2[members] = _sq_dists(F, new_centers, assign[members], members)
        anchored = sum(_sq_dists(F_a, new_centers, y).sum() for F_a, y in anchors)
        obj = float(anchored + d2.sum())
        if trace and obj > trace[-1] + 1e-9:
            monotonic = False
        trace.append(obj)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        touched[:] = False
        if shift != 0:
            pad = shift * (1 + 4 * (e + 2) * _EPS) + _MOVE_FLOOR * np.sqrt(e)
            lo = (lo - pad) * (1 - 4 * _EPS)
            slack = _slack(e, f_sq, np.einsum("ij,ij->i", centers, centers))
            up = np.sqrt(d2 + slack) * (1 + 4 * _EPS)
            unsure = np.flatnonzero(~((lo > up) & (lo * lo - up * up > 2.0 * slack)))
            if unsure.size:
                found, d2[unsure], lo2 = _nearest(F, centers, unsure)
                lo[unsure] = _sqrt_down(lo2)
                left = found != assign[unsure]
                touched[assign[unsure[left]]] = True
                touched[found[left]] = True
                assign[unsure] = found
        if shift == 0 or shift < cfg.tol:
            break
    return ClusterResult(centroids=centers, assignments=assign,
                         distances=np.sqrt(d2), iterations_run=iterations,
                         objective=float(anchored + d2.sum()),
                         objective_trace=trace, monotonic=monotonic)


def _sqrt_down(x: np.ndarray) -> np.ndarray:
    """A lower bound on sqrt(x), 0 where x <= 0."""
    return np.sqrt(np.maximum(x, 0.0)) * (1 - 4 * _EPS)


def ss_kmeans(F_l: np.ndarray, F_u: np.ndarray, F_sl: np.ndarray,
              labels: np.ndarray, cfg: ClusterConfig,
              num_classes: int) -> ClusterResult:
    """Lloyd iterations with labeled memberships pinned to ground truth.

    Centroids start at the per-class anchor means; each round assigns every
    unlabeled feature to its nearest centroid, then recomputes each centroid
    as the mean of its anchors plus its assigned unlabeled members,
    re-normalized to unit length. The objective is the sum of squared
    distances with labeled memberships fixed.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes == 0 or not (np.bincount(labels, minlength=num_classes) > 0).all():
        raise MissingLabeledClassError("every class needs a labeled anchor")

    if F_sl.shape[0] % labels.size:
        raise InvalidParameterError("F_sl rows must tile the labeled set")
    # F_sl stacks the labeled copies copy-major
    anchors = ((F_l, labels), (F_sl, np.tile(labels, F_sl.shape[0] // labels.size)))
    sums, counts = _class_sums(num_classes, F_l.shape[1], *anchors)
    return _lloyd(F_u, _unit_rows(sums / counts[:, None]), anchors, (sums, counts), cfg)


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
    tau_adapt = thresholds[2]
    n_u = result.assignments.shape[0]
    if cfg.use_adaptive_threshold:
        keep = result.distances <= tau_adapt[result.assignments]
    else:
        keep = np.ones(n_u, dtype=bool)
    idx = np.flatnonzero(keep)
    return PseudoLabelSet(indices=idx, labels=result.assignments[idx], n_unlabeled=n_u)


def build_prototypes(F_l: np.ndarray, labels: np.ndarray, F_su: np.ndarray,
                     su_labels: np.ndarray, C: int,
                     build_epoch: int = -1) -> PrototypeBank:
    """One unit-norm prototype per class: mean of labeled features with that
    ground-truth label plus the unlabeled features F_su whose su_labels
    entry is that class."""
    sums, counts = _class_sums(C, F_l.shape[1], (F_l, labels), (F_su, su_labels))
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
    if X.shape[0] < C:
        raise InvalidParameterError("fewer samples than clusters")

    centers = np.empty((C, X.shape[1]))
    d_to_mean = np.linalg.norm(X - X.mean(axis=0), axis=1)
    centers[0] = X[d_to_mean.argmax()]
    mind = np.linalg.norm(X - centers[0], axis=1)
    for k in range(1, C):
        centers[k] = X[mind.argmax()]
        mind = np.minimum(mind, np.linalg.norm(X - centers[k], axis=1))

    result = _lloyd(X, centers, (), _class_sums(C, X.shape[1]), cfg)
    cluster_to_class = _majority_map(result.assignments[:n_l], labels, C)
    return replace(result,
                   centroids=result.centroids[_inverse_or_identity(cluster_to_class, C)],
                   assignments=cluster_to_class[result.assignments[n_l:]],
                   distances=result.distances[n_l:])


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
