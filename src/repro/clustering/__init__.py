"""Clustering primitives used by the aggregator.

K-means (k-means++ initialization, Lloyd iterations; every restart of a
scan over k solved in one pass) groups shifted parties by latent profile;
the Davies–Bouldin index with an elbow criterion chooses the number of
clusters (paper Section 5.2.1).
"""
