"""aggnet: neural networks with learnable input aggregation.

Neurons here may replace the fixed weighted sum with a power-weighted
mean (learnable exponent), an affinity-weighted mean (learnable Gaussian
width), or a learnable blend of those with the plain sum.  The package
provides exact analytic gradients for all of it, plus the training and
evaluation harness used to measure accuracy under additive Gaussian
pixel noise.
"""

from .aggregation import (
    FMeanLayer,
    GaussianSupportLayer,
    HybridLayer,
    fmean_weights,
    gaussian_affinity,
    gaussian_support_weights,
)
from .data import Dataset, NoiseSpec, add_noise, batches, load_cifar10, make_synthetic
from .experiment import (
    ExperimentConfig,
    RunReport,
    build_model,
    evaluate,
    param_summary,
    robustness_score,
    sweep,
    train,
)
from .layers import (
    ConvLayer,
    FlattenLayer,
    LinearLayer,
    MaxPool2x2Layer,
    Parameter,
    ReLULayer,
    softmax_xent,
)
from .model import Model, build_cnn, build_mlp
from .ops import matmul, sigmoid, softmax, softplus
from .optim import Adam, EarlyStopper, PlateauScheduler, build_param_groups, clip_global_norm

__version__ = "0.1.0"
