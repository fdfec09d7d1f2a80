"""Triplet embedding learning with neighborhood-local margins.

Train a small embedding network with a data-dependent triplet margin tied
to each anchor's k-neighborhood, mine triplets locally, classify with
exact KNN, and verify the resulting neighborhood purity. Import each name
from its module (``from localtriplet.network import EmbeddingNet``).
"""

__version__ = "0.1.0"

# importing the package sets numpy's OpenBLAS to one thread (network._pin_blas)
from . import network
