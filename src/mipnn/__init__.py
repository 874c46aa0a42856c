"""Exact mixed-integer formulations of small ReLU networks.

Builds verification and training problems over dense or convolutional
architectures, emits them as LP/MPS files, reads solutions back, audits them
against the model, and reconstructs and scores the encoded network.  A
desk-scale exact solver is included for instances with few binaries.
"""

from .bounds import BoundsTable, propagate_bounds
from .cnn import build_cnn
from .dense import build_dense
from .emit import (count_forecast, model_stats, read_lp, read_mps,
                   read_solution, write_lp, write_mps, write_solution)
from .ir import Assignment, ModelIR, VarDef
from .nnspec import (ConvArch, ConvLayer, Dataset, DenseArch, Hyper,
                     load_dataset, preprocess)
from .oracle import SolveResult, branch_and_bound, enumerate_exact
from .recon import (ConvNet, DenseNet, MetricsReport, QuantSpec, audit,
                    canonicalize, forward, metrics, reconstruct)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BoundsTable", "ConvArch", "ConvLayer", "ConvNet",
    "Dataset", "DenseArch", "DenseNet", "Hyper", "MetricsReport", "ModelIR",
    "QuantSpec", "SolveResult", "VarDef", "audit", "branch_and_bound",
    "build_cnn", "build_dense", "canonicalize",
    "count_forecast", "enumerate_exact", "forward", "load_dataset", "metrics",
    "model_stats", "preprocess", "propagate_bounds", "read_lp", "read_mps",
    "read_solution", "reconstruct", "write_lp", "write_mps", "write_solution",
]
