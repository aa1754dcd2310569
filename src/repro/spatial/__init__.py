"""Spatial substrate: distances, nearest neighbours, similarity graphs.

This subpackage implements everything Section II-C of the paper needs:

- pairwise distance computation (:mod:`repro.spatial.distances`),
- a from-scratch KD-tree for nearest-neighbour queries
  (:mod:`repro.spatial.kdtree`),
- ``p``-nearest-neighbour search (:mod:`repro.spatial.neighbors`),
- the one graph builder, which turns coordinates into the symmetric
  p-NN similarity matrix **D** of Formula 3, the degree vector and the
  graph Laplacian **L = W - D** in sparse form
  (:mod:`repro.spatial.similarity`),
- dense degree matrix **W** (Formula 4) and Laplacian helpers
  (:mod:`repro.spatial.laplacian`), and
- a content-addressed cache of the whole graph build so sweeps over one
  dataset pay the ``N^2`` construction once
  (:mod:`repro.spatial.graph_cache`).
"""

from .distances import euclidean_distances, haversine_distances, pairwise_sq_euclidean
from .graph_cache import (
    SpatialGraph,
    clear_graph_cache,
    graph_cache_info,
    spatial_graph,
)
from .kdtree import KDTree
from .neighbors import knn_indices
from .laplacian import degree_matrix, graph_laplacian, laplacian_from_points
from .similarity import knn_similarity_matrix, prepare_spatial_coordinates

__all__ = [
    "SpatialGraph",
    "clear_graph_cache",
    "graph_cache_info",
    "spatial_graph",
    "euclidean_distances",
    "haversine_distances",
    "pairwise_sq_euclidean",
    "KDTree",
    "knn_indices",
    "knn_similarity_matrix",
    "prepare_spatial_coordinates",
    "degree_matrix",
    "graph_laplacian",
    "laplacian_from_points",
]
