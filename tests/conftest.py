import math

import numpy as np
import pytest

from mipnn.bounds import propagate_bounds
from mipnn.cnn import build_cnn
from mipnn.dense import build_dense
from mipnn.nnspec import (TRAIN_QUANTIZED, VERIFY, ConvArch, ConvLayer,
                          Dataset, DenseArch, Hyper, validate_arch)


def xor_data(one_hot=False):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    if one_hot:
        T = np.zeros((4, 2))
        T[np.arange(4), y.astype(int)] = 1.0
        return Dataset(inputs=X, targets=T)
    return Dataset(inputs=X, targets=y.reshape(-1, 1))


def random_dense_weights(rng, widths, scale=1.0):
    return [(scale * rng.uniform(-1, 1, size=(widths[l + 1], widths[l])),
             scale * rng.uniform(-1, 1, size=widths[l + 1]))
            for l in range(len(widths) - 1)]


def verify_dense_build(rng, widths, n_samples, symmetry=False, big_m=50.0):
    """A fixed-weight dense instance over random inputs, ready to audit."""
    arch = DenseArch(widths[0], list(widths[1:-1]), widths[-1])
    weights = random_dense_weights(rng, widths)
    X = rng.uniform(-1, 1, size=(n_samples, widths[0]))
    data = Dataset(inputs=X, targets=np.zeros((n_samples, widths[-1])))
    hyper = Hyper(mode=VERIFY, big_m=big_m, symmetry=symmetry)
    bt = propagate_bounds(arch, X.min(0), X.max(0), 0.0, 0.0,
                          fixed_weights=weights)
    build = build_dense(arch, data, hyper, bt, weights=weights)
    build.model.freeze()
    return build, weights, X


def quantized_dense_build(data, hidden, bits=1, beta=0.01, symmetry=True,
                          w_max=1.0, loss="squared", freeze=True):
    arch = DenseArch(data.inputs.shape[1], list(hidden), data.targets.shape[1])
    hyper = Hyper(alpha=0.1, lam=0.9, beta=beta, big_m=10.0,
                  mode=TRAIN_QUANTIZED, loss=loss, bits=bits, w_max=w_max,
                  quantize_biases=True, symmetry=symmetry)
    bt = propagate_bounds(arch, data.inputs.min(0), data.inputs.max(0),
                          -w_max, w_max)
    build = build_dense(arch, data, hyper, bt)
    if freeze:
        build.model.freeze()
    return build


def tiny_conv_build(rng=None, n_samples=2, bits=1, mode=TRAIN_QUANTIZED,
                    pool=((2, 2), 2), filters=2, freeze=True, symmetry=False,
                    shape=(1, 4, 4), kernel=(3, 3), w_max=1.0):
    """A 1x4x4 input (or ``shape``), one conv layer, optionally pooled,
    single-output head; trained parameters lie in [-w_max, w_max]."""
    rng = rng or np.random.default_rng(0)
    arch = ConvArch(input_shape=shape,
                    conv_layers=(ConvLayer(filters=filters, kernel=kernel,
                                           pool=pool),),
                    head_dim=1)
    X = rng.uniform(0, 1, size=(n_samples,) + shape)
    data = Dataset(inputs=X, targets=rng.uniform(-1, 1, size=(n_samples, 1)))
    weights = None
    if mode == VERIFY:
        weights = [(rng.uniform(-1, 1, size=(filters, shape[0]) + kernel),
                    rng.uniform(-1, 1, size=filters))]
        head_dim_in = math.prod(validate_arch(arch)[-1])
        weights.append((rng.uniform(-1, 1, size=(1, head_dim_in)),
                        rng.uniform(-1, 1, size=1)))
    hyper = Hyper(alpha=0.1, lam=0.9, beta=0.01, big_m=20.0, mode=mode,
                  bits=bits, w_max=w_max, quantize_biases=True, symmetry=symmetry)
    flat = X.reshape(n_samples, -1)
    in_lo = flat.min(0).reshape(shape)
    in_hi = flat.max(0).reshape(shape)
    if weights is not None:
        bt = propagate_bounds(arch, in_lo, in_hi, 0.0, 0.0, fixed_weights=weights)
    else:
        bt = propagate_bounds(arch, in_lo, in_hi, -w_max, w_max)
    build = build_cnn(arch, data, hyper, bt, weights=weights)
    if freeze:
        build.model.freeze()
    return build


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
