"""Straight-line re-executions of the clustering loops, used as test oracles.

``anchored_lloyd`` and ``plain_lloyd`` are written with explicit per-sample
loops and no shared code with the package, so a bookkeeping bug in the
vectorized implementation cannot hide in its own oracle.

``full_ss_kmeans`` and ``full_pure_kmeans`` are the bit-exact reference
for the incremental rounds of ``cluster._lloyd``: ``full_lloyd``
recomputes every assignment, centre and objective term in every round,
searching with the full (n, C, e) difference tensor and summing classes
with ``np.add.at``.
"""

from dataclasses import replace

import numpy as np

from aplt import cluster
from aplt.cluster import ClusterResult


def unit(v):
    n = np.linalg.norm(v)
    return v / max(n, 1e-12)


def anchored_lloyd(F_l, F_u, F_sl, labels, C, max_iters, tol):
    """Reference run of anchored spherical k-means; mirrors the documented rule:
    anchor-mean init, nearest-centroid assignment, anchored mean update with
    re-normalization, stop on max shift 0 or < tol, final re-assignment."""
    sl_labels = []
    if len(F_sl):
        copies = len(F_sl) // len(labels)
        sl_labels = [labels[i % len(labels)] for i in range(copies * len(labels))]

    def anchor_members(c):
        rows = [F_l[i] for i in range(len(labels)) if labels[i] == c]
        rows += [F_sl[i] for i in range(len(F_sl)) if sl_labels[i] == c]
        return rows

    centroids = []
    for c in range(C):
        rows = anchor_members(c)
        centroids.append(unit(np.mean(rows, axis=0)))
    centroids = np.array(centroids)

    assign = [0] * len(F_u)
    objective_trace = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        for i in range(len(F_u)):
            dists = [np.linalg.norm(F_u[i] - centroids[c]) for c in range(C)]
            assign[i] = int(np.argmin(dists))
        new_centroids = []
        for c in range(C):
            rows = anchor_members(c)
            rows += [F_u[i] for i in range(len(F_u)) if assign[i] == c]
            new_centroids.append(unit(np.mean(rows, axis=0)))
        new_centroids = np.array(new_centroids)

        obj = 0.0
        for i in range(len(labels)):
            obj += float(np.sum((F_l[i] - new_centroids[labels[i]]) ** 2))
        for i in range(len(F_sl)):
            obj += float(np.sum((F_sl[i] - new_centroids[sl_labels[i]]) ** 2))
        for i in range(len(F_u)):
            obj += float(np.sum((F_u[i] - new_centroids[assign[i]]) ** 2))
        objective_trace.append(obj)

        shift = max(np.linalg.norm(new_centroids[c] - centroids[c]) for c in range(C))
        centroids = new_centroids
        if shift == 0 or shift < tol:
            break

    distances = np.zeros(len(F_u))
    for i in range(len(F_u)):
        dists = [np.linalg.norm(F_u[i] - centroids[c]) for c in range(C)]
        assign[i] = int(np.argmin(dists))
        distances[i] = min(dists)
    final_obj = 0.0
    for i in range(len(labels)):
        final_obj += float(np.sum((F_l[i] - centroids[labels[i]]) ** 2))
    for i in range(len(F_sl)):
        final_obj += float(np.sum((F_sl[i] - centroids[sl_labels[i]]) ** 2))
    for i in range(len(F_u)):
        final_obj += float(np.sum((F_u[i] - centroids[assign[i]]) ** 2))
    return np.array(assign), distances, centroids, final_obj, iterations


def plain_lloyd(X, C, max_iters, tol):
    """Reference unanchored spherical Lloyd with the same deterministic
    farthest-point initialization and empty-cluster reseeding."""
    n = len(X)
    mean = np.mean(X, axis=0)
    first = int(np.argmax([np.linalg.norm(X[i] - mean) for i in range(n)]))
    centers = [X[first]]
    mind = [np.linalg.norm(X[i] - centers[0]) for i in range(n)]
    for _ in range(1, C):
        nxt = int(np.argmax(mind))
        centers.append(X[nxt])
        for i in range(n):
            mind[i] = min(mind[i], np.linalg.norm(X[i] - centers[-1]))
    centers = np.array(centers)

    assign = [0] * n
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        for i in range(n):
            dists = [np.linalg.norm(X[i] - centers[c]) for c in range(C)]
            assign[i] = int(np.argmin(dists))
        new_centers = []
        for c in range(C):
            members = [X[i] for i in range(n) if assign[i] == c]
            if not members:
                far = int(np.argmax([np.linalg.norm(X[i] - centers[assign[i]])
                                     for i in range(n)]))
                new_centers.append(X[far])
            else:
                new_centers.append(np.mean(members, axis=0))
        new_centers = np.array([unit(row) for row in new_centers])
        shift = max(np.linalg.norm(new_centers[c] - centers[c]) for c in range(C))
        centers = new_centers
        if shift == 0 or shift < tol:
            break

    for i in range(n):
        dists = [np.linalg.norm(X[i] - centers[c]) for c in range(C)]
        assign[i] = int(np.argmin(dists))
    obj = sum(float(np.sum((X[i] - centers[assign[i]]) ** 2)) for i in range(n))
    return np.array(assign), centers, obj, iterations


def full_nearest(F, centroids):
    """Nearest centroid and squared distance from the full difference
    tensor: einsum, argmin (ties to the lowest index), gather."""
    diff = F[:, None, :] - centroids[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    assign = d2.argmin(axis=1)
    return assign, d2[np.arange(F.shape[0]), assign]


_nearest = full_nearest


def _unit_rows(a):
    return a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)


def _row_sq_dists(F, targets):
    """Each row's squared distance to its target row, from the whole (n, e)
    difference."""
    D = F - targets
    return np.einsum("ij,ij->i", D, D)


def _class_sums(C, e, *blocks):
    sums = np.zeros((C, e))
    counts = np.zeros(C, dtype=np.int64)
    for F, y in blocks:
        np.add.at(sums, y, F)
        counts += np.bincount(y, minlength=C)
    return sums, counts


def full_lloyd(F: np.ndarray, centers: np.ndarray, update, objective,
               cfg) -> ClusterResult:
    """Lloyd rounds over the rows of F, starting from ``centers``.

    Each round assigns every row to its nearest centre, then asks
    ``update(assign, d2)`` for the next centres and traces
    ``objective(assign, centers)`` on them; a rise of more than 1e-9 over
    the previous round clears ``monotonic``. Stops when no centre moves or
    the largest movement falls below ``tol``, or after ``max_iters``
    rounds, and returns the final nearest-centre assignment of every row
    of F.
    """
    trace: list[float] = []
    monotonic = True
    for iterations in range(1, cfg.max_iters + 1):
        assign, d2 = _nearest(F, centers)
        new_centers = update(assign, d2)
        obj = objective(assign, new_centers)
        if trace and obj > trace[-1] + 1e-9:
            monotonic = False
        trace.append(obj)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift == 0 or shift < cfg.tol:
            break
    assign, d2 = _nearest(F, centers)
    return ClusterResult(centroids=centers, assignments=assign,
                         distances=np.sqrt(d2), iterations_run=iterations,
                         objective=objective(assign, centers),
                         objective_trace=trace, monotonic=monotonic)


def full_ss_kmeans(F_l, F_u, F_sl, labels, cfg, C):
    """Anchored k-means with every round recomputed in full."""
    labels = np.asarray(labels, dtype=np.int64)
    sl_labels = np.tile(labels, F_sl.shape[0] // labels.shape[0])
    anchor_sums, anchor_counts = _class_sums(C, F_l.shape[1], (F_l, labels),
                                             (F_sl, sl_labels))

    def update(assign, d2):
        sums = anchor_sums.copy()
        np.add.at(sums, assign, F_u)
        counts = anchor_counts + np.bincount(assign, minlength=C)
        return _unit_rows(sums / counts[:, None])

    def objective(assign, centroids):
        return float(_row_sq_dists(F_l, centroids[labels]).sum()
                     + _row_sq_dists(F_sl, centroids[sl_labels]).sum()
                     + _row_sq_dists(F_u, centroids[assign]).sum())

    return full_lloyd(F_u, _unit_rows(anchor_sums / anchor_counts[:, None]),
                      update, objective, cfg)


def full_pure_kmeans(F_l, F_u, labels, C, cfg):
    """Unanchored k-means with every round recomputed in full, mapped to
    classes as the package maps it."""
    X = np.concatenate([F_l, F_u], axis=0)
    n_l = F_l.shape[0]
    centers = np.empty((C, X.shape[1]))
    d_to_mean = np.linalg.norm(X - X.mean(axis=0), axis=1)
    centers[0] = X[d_to_mean.argmax()]
    mind = np.linalg.norm(X - centers[0], axis=1)
    for k in range(1, C):
        centers[k] = X[mind.argmax()]
        mind = np.minimum(mind, np.linalg.norm(X - centers[k], axis=1))

    def update(assign, d2):
        sums, counts = _class_sums(C, X.shape[1], (X, assign))
        new_centers = sums / np.maximum(counts, 1)[:, None]
        new_centers[counts == 0] = X[np.sqrt(d2).argmax()]
        return _unit_rows(new_centers)

    def objective(assign, centers):
        return float(_row_sq_dists(X, centers[assign]).sum())

    result = full_lloyd(X, centers, update, objective, cfg)
    cluster_to_class = cluster._majority_map(result.assignments[:n_l], labels, C)
    order = cluster._inverse_or_identity(cluster_to_class, C)
    return replace(result, centroids=result.centroids[order],
                   assignments=cluster_to_class[result.assignments[n_l:]],
                   distances=result.distances[n_l:])
