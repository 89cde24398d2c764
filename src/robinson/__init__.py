"""Asymmetric Robinson seriation toolkit.

Recognition of two-way-Robinson dissimilarity spaces, optimal compatible
orientations of trees, stars and paths, hardness-reduction instance
generators, and brute-force oracles for desk-scale certification.
"""

from .c1p import BinaryMatrix, PQTree, frontier, test_c1p
from .core import (
    DissimilaritySpace,
    OrientedTree,
    Tree,
    VertexOrder,
    check_compatible,
    count_xi,
    is_one_way_order,
    is_two_way_order,
)
from .errors import InputError, PreconditionError, SizeGuardError
from .oracle import segment
from .paths import EtaTable, eta_table, path_orientation
from .recognition import recognize_two_way
from .reductions import (
    Cnf3,
    OrientationInstance,
    SimpleGraph,
    SubsetInstance,
    build_assignment_instance,
    build_orientation_instance,
    build_subset_instance,
    orientation_kappa,
    parse_dimacs,
    witness_orientation,
)
from .stars import (
    PetalPartition,
    StarAssignment,
    assign_star,
    best_star_center,
    orient_star,
    petals,
)
from .uniform_orient import (
    find_centroid,
    optimal_partition_of_neighbors,
    orient_all_robinson,
    verify_all_paths_robinson,
)

__all__ = [
    "BinaryMatrix",
    "Cnf3",
    "DissimilaritySpace",
    "EtaTable",
    "InputError",
    "OrientationInstance",
    "OrientedTree",
    "PQTree",
    "PetalPartition",
    "PreconditionError",
    "SimpleGraph",
    "SizeGuardError",
    "StarAssignment",
    "SubsetInstance",
    "Tree",
    "VertexOrder",
    "assign_star",
    "best_star_center",
    "build_assignment_instance",
    "build_orientation_instance",
    "build_subset_instance",
    "check_compatible",
    "count_xi",
    "eta_table",
    "find_centroid",
    "frontier",
    "is_one_way_order",
    "is_two_way_order",
    "optimal_partition_of_neighbors",
    "orient_all_robinson",
    "orient_star",
    "orientation_kappa",
    "parse_dimacs",
    "path_orientation",
    "petals",
    "recognize_two_way",
    "segment",
    "test_c1p",
    "verify_all_paths_robinson",
    "witness_orientation",
]
