"""Spatially scaled convolutional training and its reparameterization oracle.

Each module owns its public names, and callers import them from it
(``from spatialgrad.training import build_run``). The package binds only
``conv_forward``, ``step`` and ``train``, because the benchmark's tracer
(``bench/tracing.py``) checks that it wraps and restores every site that
binds them, this namespace included.
"""

from .conv import conv_forward
from .optim import step
from .training import train

__version__ = "0.1.0"
