"""Spatially scaled convolutional training and its reparameterization oracle."""

from .conv import ConvSpec, conv_backward_input, conv_backward_weights, conv_forward
from .data import LabeledDataset, read_cifar_binary, read_idx, synth_correlated_field, synth_digits
from .dependence import (
    BinningConfig,
    SpatialDependenceMatrix,
    alpha_beta_scaling,
    collect_pairs,
    normalized_mi,
    spatial_dependence_autocorr,
    spatial_dependence_mi,
)
from .optim import OptimizerConfig, OptimizerState, adaptive_step, make_state, step
from .reparam import (
    BranchedConv,
    DivergenceReport,
    branched_backward_step,
    branched_forward,
    equivalence_run,
    split_init,
    standard_mask_sets,
)
from .scaling import ScalingMatrix, finalize, from_masks, k_transform
from .tensor import ShapeError
from .training import Run, SgsSettings, TrainingConfig, refresh_scalings, train

__version__ = "0.1.0"
