"""Triplet embedding learning with neighborhood-local margins.

Train a small embedding network with a data-dependent triplet margin tied
to each anchor's k-neighborhood, mine triplets locally, classify with
exact KNN, and verify the resulting neighborhood purity.
"""

__version__ = "0.1.0"

from .data import Dataset, load_dataset, load_mnist_idx, make_blobs, save_dataset, split
from .knn import (
    NeighborIndex,
    NeighborhoodSnapshot,
    build_index,
    choose_k,
    knn_classify,
    query_knn,
    take_snapshot,
    topk,
)
from .losses import (
    BatchStats,
    LossWeights,
    TripletLossResult,
    combined_loss,
    fixed_margin_loss,
    local_margin_loss,
)
from .mathops import mean_and_var
from .mining import Triplet, sample_hard, sample_local, sample_uniform
from .network import (
    Adam,
    EmbeddingNet,
    LayerSpec,
    SoftmaxHead,
    conv2d,
    dense,
    flatten,
    load_checkpoint,
    maxpool2,
    mlp,
    mnist_cnn,
    save_checkpoint,
    softmax_head_loss,
)
from .training import (
    DivergedError,
    EpochReport,
    TrainConfig,
    evaluate_knn,
    run_epoch,
    train,
)
from .verify import (
    OptimalConditionReport,
    PurityReport,
    check_optimal_condition,
    corollary_margin_check,
    pca_reduce,
    purity_check,
)
