"""Clustering primitives used by the aggregator.

K-means (k-means++ initialization, Lloyd iterations; every restart of a
scan over k solved in one pass) groups shifted parties by latent profile;
the Davies–Bouldin index with an elbow criterion chooses the number of
clusters (paper Section 5.2.1).
"""

from repro.clustering.kmeans import KMeansResult, kmeans
from repro.clustering.davies_bouldin import davies_bouldin_indices
from repro.clustering.selection import select_num_clusters

__all__ = [
    "KMeansResult",
    "kmeans",
    "davies_bouldin_indices",
    "select_num_clusters",
]
