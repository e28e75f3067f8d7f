"""Application clustering (Section 3.5).

The paper forms a 19-value feature vector per application — execution
time versus thread count (7 features), execution time versus LLC size
(10 features), prefetcher sensitivity (1) and bandwidth sensitivity (1) —
normalizes every metric to [0, 1], and applies single-linkage hierarchical
clustering (scipy), cutting the dendrogram at a linkage distance of 0.9.

``cluster_applications`` takes the feature dict built by
``repro.analysis.characterize`` so the algorithm stays decoupled from how
features are measured.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ValidationError

EXPECTED_FEATURES = 19


@dataclass
class ClusterResult:
    """Cluster assignments plus the dendrogram's linkage matrix."""

    names: list
    labels: dict  # name -> cluster id (1-based)
    linkage_matrix: np.ndarray
    features: np.ndarray
    cut_distance: float
    representatives: dict = field(default_factory=dict)  # cluster id -> name

    @property
    def num_clusters(self):
        return len(set(self.labels.values()))

    def members(self, cluster_id):
        return [n for n, c in self.labels.items() if c == cluster_id]

    def clusters(self):
        return {c: self.members(c) for c in sorted(set(self.labels.values()))}


def normalize_features(matrix):
    """Scale each feature column to [0, 1] across applications."""
    matrix = np.asarray(matrix, dtype=float)
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = np.where(hi - lo > 1e-12, hi - lo, 1.0)
    return (matrix - lo) / span


def cluster_applications(features_by_name, cut_distance=0.9, expected_len=None):
    """Single-linkage clustering of the normalized feature vectors.

    Args:
        features_by_name: {application name: sequence of raw features}.
        cut_distance: dendrogram cut (the paper uses 0.9).
        expected_len: optional check on vector length (19 in the paper).
    """
    from scipy.cluster.hierarchy import fcluster, linkage

    if not features_by_name:
        raise ValidationError("need at least one application to cluster")
    names = sorted(features_by_name)
    lengths = {len(features_by_name[n]) for n in names}
    if len(lengths) != 1:
        raise ValidationError("feature vectors must all have the same length")
    if expected_len is not None and lengths != {expected_len}:
        raise ValidationError(
            f"expected {expected_len}-value feature vectors, got {lengths}"
        )

    matrix = normalize_features([features_by_name[n] for n in names])
    if len(names) == 1:
        labels = {names[0]: 1}
        return ClusterResult(
            names=names,
            labels=labels,
            linkage_matrix=np.empty((0, 4)),
            features=matrix,
            cut_distance=cut_distance,
            representatives={1: names[0]},
        )

    link = linkage(matrix, method="single", metric="euclidean")
    assignment = fcluster(link, t=cut_distance, criterion="distance")
    labels = {name: int(c) for name, c in zip(names, assignment)}
    result = ClusterResult(
        names=names,
        labels=labels,
        linkage_matrix=link,
        features=matrix,
        cut_distance=cut_distance,
    )
    result.representatives = _representatives(result)
    return result


def render_dendrogram(result, width=60):
    """Render the linkage tree as ASCII (the Fig. 5 view).

    Each merge is one line: the two clusters joined and the linkage
    distance, drawn as a bar scaled to the maximum distance. Leaves are
    application names; internal nodes are shown by their member count.
    """
    link = result.linkage_matrix
    if link.shape[0] == 0:
        return f"(single application: {result.names[0]})"
    n = len(result.names)
    labels = {i: result.names[i] for i in range(n)}
    sizes = {i: 1 for i in range(n)}
    max_distance = float(link[-1, 2]) or 1.0
    lines = []
    for merge_index, (a, b, distance, size) in enumerate(link):
        a, b = int(a), int(b)
        node = n + merge_index
        label_a = labels[a] if sizes[a] == 1 else f"[{sizes[a]} apps]"
        label_b = labels[b] if sizes[b] == 1 else f"[{sizes[b]} apps]"
        bar = "#" * max(1, int(distance / max_distance * width))
        marker = "*" if distance > result.cut_distance else " "
        lines.append(
            f"{distance:6.3f} {marker}|{bar:<{width}}| {label_a} + {label_b}"
        )
        labels[node] = f"[{int(size)} apps]"
        sizes[node] = int(size)
    lines.append(
        f"(cut at {result.cut_distance}: merges marked '*' happen above the "
        f"cut and separate clusters)"
    )
    return "\n".join(lines)


def _representatives(result):
    """The application closest to each cluster's centroid (Table 3 bold)."""
    reps = {}
    index_of = {name: i for i, name in enumerate(result.names)}
    for cluster_id, members in result.clusters().items():
        rows = result.features[[index_of[m] for m in members]]
        centroid = rows.mean(axis=0)
        distances = np.linalg.norm(rows - centroid, axis=1)
        reps[cluster_id] = members[int(np.argmin(distances))]
    return reps


# -- LFOC-style tenant clustering (the N-tenant partitioning policy) ----------
#
# LFOC ("A Lightweight Fairness-Oriented Cache Clustering Policy for
# Commodity Multicores") classifies each co-running program by its
# way-utility curve, groups programs of the same class into partition
# clusters, and sizes each cluster from a small lookup table rather
# than an online search. The policy here follows that shape over the
# repo's exact :class:`~repro.backend.protocol.WayUtility` curves (UMON
# stack distances on the trace backend, cached solo runs analytically).

TENANT_CLASSES = ("squanderer", "insensitive", "sensitive")

# The lookup-table apportioning: ways reserved for the shared cluster
# of each non-sensitive class; sensitive tenants split the remainder.
CLUSTER_RESERVED_WAYS = {"squanderer": 1, "insensitive": 2}


def classify_tenant(utility, llc_ways=None, squander_hit_fraction=0.002,
                    saturate_fraction=0.9, saturate_ways=2):
    """One tenant's LFOC class from its way-utility curve.

    - ``squanderer``: even the whole cache yields almost no hits
      (below ``squander_hit_fraction`` of its accesses) — streaming;
      extra ways are wasted on it;
    - ``insensitive``: reaches ``saturate_fraction`` of its full-cache
      hits within ``saturate_ways`` ways — a small cluster suffices;
    - ``sensitive``: everything else — hits keep growing with ways.
    """
    if llc_ways is None:
        llc_ways = utility.llc_ways
    full_hits = utility.hits_at(llc_ways)
    if full_hits <= squander_hit_fraction * utility.accesses:
        return "squanderer"
    if utility.hits_at(min(saturate_ways, llc_ways)) >= (
        saturate_fraction * full_hits
    ):
        return "insensitive"
    return "sensitive"


@dataclass
class ClusterPlan:
    """An LFOC-style partition plan over one tenant group.

    ``clusters`` lists ``(label, member names, ways)`` bottom-up in
    mask order; every member of a cluster shares the same way mask in
    ``split``.
    """

    names: tuple
    classes: dict  # name -> class label
    clusters: tuple  # ((label, (names...), ways), ...)
    split: object  # GroupSplit


def cluster_tenants(utilities, names=None, llc_ways=None, **classify_kwargs):
    """Cluster tenants by way-utility class and apportion the cache.

    Sensitive tenants get one cluster each; all insensitive tenants
    share one cluster, all squanderers another. Shared clusters take
    their lookup-table reservation (:data:`CLUSTER_RESERVED_WAYS`);
    sensitive clusters split the remaining ways evenly, remainder to
    the earliest. With no sensitive tenant the leftover goes to the
    insensitive cluster (or the squanderers when there is none).
    Masks are contiguous, packed bottom-up: sensitive clusters first
    (tenant order), then insensitive, squanderers on top.
    """
    from repro.backend.protocol import GroupSplit

    if names is None:
        names = tuple(sorted(utilities))
    names = tuple(names)
    if not names:
        raise ValidationError("need at least one tenant to cluster")
    missing = [n for n in names if n not in utilities]
    if missing:
        raise ValidationError(f"no way-utility curve for {missing}")
    if llc_ways is None:
        llc_ways = utilities[names[0]].llc_ways

    classes = {
        name: classify_tenant(utilities[name], llc_ways, **classify_kwargs)
        for name in names
    }
    sensitive = [n for n in names if classes[n] == "sensitive"]
    insensitive = [n for n in names if classes[n] == "insensitive"]
    squanderers = [n for n in names if classes[n] == "squanderer"]

    reserved = 0
    if insensitive:
        reserved += CLUSTER_RESERVED_WAYS["insensitive"]
    if squanderers:
        reserved += CLUSTER_RESERVED_WAYS["squanderer"]
    available = llc_ways - reserved

    clusters = []  # (label, members, ways) bottom-up
    if sensitive:
        if available < len(sensitive):
            raise ValidationError(
                f"{len(sensitive)} sensitive tenants need at least one way "
                f"each; only {available} of {llc_ways} remain after the "
                "lookup-table reservations"
            )
        base, extra = divmod(available, len(sensitive))
        for i, name in enumerate(sensitive):
            clusters.append(
                ("sensitive", (name,), base + (1 if i < extra else 0))
            )
        leftover = 0
    else:
        leftover = available
    if insensitive:
        ways = CLUSTER_RESERVED_WAYS["insensitive"] + leftover
        clusters.append(("insensitive", tuple(insensitive), ways))
        leftover = 0
    if squanderers:
        ways = CLUSTER_RESERVED_WAYS["squanderer"] + leftover
        clusters.append(("squanderer", tuple(squanderers), ways))
        leftover = 0

    bits_of = {}
    offset = 0
    for label, members, ways in clusters:
        mask = ((1 << ways) - 1) << offset
        for member in members:
            bits_of[member] = mask
        offset += ways
    split = GroupSplit(tuple(bits_of[n] for n in names), llc_ways)
    return ClusterPlan(
        names=names,
        classes=classes,
        clusters=tuple(clusters),
        split=split,
    )
