"""Dimension reduction for non-Euclidean, non-metric dissimilarities.

Embeds arbitrary symmetric hollow dissimilarity matrices by selecting both
positive and negative eigenvalues of the centered Gram matrix, with an exact
stress decomposition, optimal greedy selectors, landmark acceleration,
synthetic benchmarks, and a random-matrix verification laboratory.
"""

from .embedding import Embedding, SweepEntry, embed, reconstruct, report, sweep
from .landmark import LandmarkModel, embed_landmark, fit_landmarks, triangulate
from .linalg import (
    SpectralDecomposition,
    check_dissimilarity,
    double_center,
    eig_sym,
    gram_to_dissim,
)
from .metrics import (
    StressReport,
    avg_geometric_distortion,
    decompose,
    negativity_stats,
    scaled_additive_error,
    stress,
)
from .selection import (
    CMDS,
    METHODS,
    NEUC,
    PLUS,
    SelectionResult,
    select,
    select_bruteforce,
    select_cmds,
    select_neuc,
    select_plus,
)

__version__ = "0.1.0"

__all__ = [
    "CMDS",
    "NEUC",
    "PLUS",
    "METHODS",
    "Embedding",
    "LandmarkModel",
    "SelectionResult",
    "SpectralDecomposition",
    "StressReport",
    "SweepEntry",
    "avg_geometric_distortion",
    "check_dissimilarity",
    "decompose",
    "double_center",
    "eig_sym",
    "embed",
    "embed_landmark",
    "fit_landmarks",
    "gram_to_dissim",
    "negativity_stats",
    "reconstruct",
    "report",
    "scaled_additive_error",
    "select",
    "select_bruteforce",
    "select_cmds",
    "select_neuc",
    "select_plus",
    "stress",
    "sweep",
    "triangulate",
]
