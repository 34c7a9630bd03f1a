"""Greedy construction of compact, sparse binary-activated neural networks
for univariate and multivariate regression."""

__version__ = "0.3.0"

from .bounds import bound_chain
from .data import SplitSpec, load_csv, split_dataset
from .errors import (
    BannetError,
    ConfigError,
    DataError,
    DimensionError,
    ModelFormatError,
    SolverError,
    TrainingAbort,
    ZeroWeightVector,
)
from .model import BannModel, Dataset, forward, load_model, mse, save_model
from .solvers import LassoConfig
from .train import IterationRecord, TrainConfig, TrainReport, build_network
