"""hdhash: learn compact binary codes from feature vectors and search them.

The training stack is a greedy tanh autoencoder cascade with balance and
decorrelation penalties, topped by a binary RBM trained with contrastive
divergence under the same penalties. Trained models hash features into
packed k-bit codes; retrieval is an exact Hamming-space linear scan with
precision-recall evaluation over radius sweeps.
"""

from .codes import HashCode
from .errors import (
    CapacityError,
    ChecksumError,
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    FormatError,
    HdhError,
    ParseError,
    ShapeError,
    TruncationError,
    VersionError,
)
from .features import FeatureMatrix, NormStats, load_features, normalize
from .pipeline import (
    Model,
    TrainingConfig,
    encode_matrix,
    init_model,
    load_model,
    parse_config_file,
    save_model,
    train,
)
from .rbm import Rbm, RbmGradients
from .sae import SaeGradients, SaeLayer, SaeStack, binarize_pm, encode_stack
from .search import (
    HammingIndex,
    auc,
    ground_truth,
    precision_recall,
    radius_search,
    topk,
)

__version__ = "0.1.0"
