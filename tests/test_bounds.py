import math

import numpy as np
import pytest

from mipnn.bounds import (BoundsError, BoundsTable, LayerBounds, _widen,
                          propagate_bounds)
from mipnn.nnspec import ConvArch, ConvLayer, DenseArch, validate_arch
from mipnn.recon import ConvNet, DenseNet, forward_preactivations

from conftest import random_dense_weights


def test_widen_clamps_each_interval_to_include_zero():
    lo, hi = _widen(np.array([1.0, -2.0, -1.0]), np.array([2.0, -1.0, 1.0]))
    assert lo.tolist() == [0.0, -2.0, -1.0]
    assert hi.tolist() == [2.0, 0.0, 1.0]


def test_interval_propagation_fixed_weights_exact_on_point_input():
    """Degenerate input box with fixed weights collapses to the forward pass,
    clamped to include 0 so the indicator encoding stays well posed."""
    rng = np.random.default_rng(1)
    widths = (3, 4, 2)
    weights = random_dense_weights(rng, widths)
    arch = DenseArch(3, [4], 2)
    x = rng.uniform(-1, 1, size=3)
    bt = propagate_bounds(arch, x, x, 0.0, 0.0, fixed_weights=weights)
    net = DenseNet(weights=weights, gamma=np.ones(1))
    z = forward_preactivations(net, x[None, :])[0][0]
    lb = bt.layer(0)
    assert np.allclose(lb.unit_lo, np.minimum(z, 0.0))
    assert np.allclose(lb.unit_hi, np.maximum(z, 0.0))


def test_interval_soundness_dense(rng):
    """Random weights and inputs inside the declared boxes never escape the
    propagated interval bounds at any layer."""
    widths = (3, 4, 3, 2)
    arch = DenseArch(3, [4, 3], 2)
    in_lo, in_hi = -np.ones(3), np.ones(3)
    bt = propagate_bounds(arch, in_lo, in_hi, -2.0, 2.0)
    for _ in range(100):
        weights = random_dense_weights(rng, widths, scale=2.0)
        net = DenseNet(weights=weights, gamma=np.ones(2))
        X = rng.uniform(-1, 1, size=(50, 3))
        for l, z in enumerate(forward_preactivations(net, X)):
            lb = bt.layer(l)
            assert np.all(z >= lb.unit_lo[None, :] - 1e-9)
            assert np.all(z <= lb.unit_hi[None, :] + 1e-9)


@pytest.mark.parametrize("layers,shape", [
    ((ConvLayer(filters=2, kernel=(3, 3), pool=((2, 2), 1)),), (1, 5, 5)),
    # 17x17 -> 8x8 by a stride-2 kernel, pooled to 4x4, -> 2x2 by another
    ((ConvLayer(filters=2, kernel=(3, 3), stride=2, pool=((2, 2), 2)),
      ConvLayer(filters=3, kernel=(2, 2), stride=2)), (2, 17, 17)),
], ids=["one-layer-pooled", "strided-two-layers-pooled-between"])
def test_interval_soundness_conv(rng, layers, shape):
    arch = ConvArch(input_shape=shape, conv_layers=layers, head_dim=1)
    bt = propagate_bounds(arch, np.zeros(shape), np.ones(shape), -1.0, 1.0)
    shapes = validate_arch(arch)
    for _ in range(50):
        kernels = [(rng.uniform(-1, 1, size=(layer.filters, c) + layer.kernel),
                    rng.uniform(-1, 1, size=layer.filters))
                   for layer, (c, _, _) in zip(layers, shapes)]
        net = ConvNet(kernels=kernels,
                      head=(np.zeros((1, math.prod(shapes[-1]))), np.zeros(1)),
                      gamma=[np.ones(layer.filters) for layer in layers],
                      pools=[layer.pool for layer in layers],
                      strides=[layer.stride for layer in layers])
        X = rng.uniform(0, 1, size=(20,) + shape)
        for l, z in enumerate(forward_preactivations(net, X)):
            lb = bt.layer(l)
            assert np.all(z >= lb.unit_lo[:, None, None] - 1e-9)
            assert np.all(z <= lb.unit_hi[:, None, None] + 1e-9)


def test_conv_point_box_bounds_are_the_forward_extremes(rng):
    """A point input box with fixed kernels: each channel's interval is the
    forward pass's extremes over its positions, clamped to include 0, on
    two strided layers with a pool between them."""
    layers = (ConvLayer(filters=2, kernel=(3, 3), stride=2, pool=((2, 2), 2)),
              ConvLayer(filters=3, kernel=(2, 2), stride=2))
    arch = ConvArch(input_shape=(2, 17, 17), conv_layers=layers, head_dim=1)
    kernels = [(rng.uniform(-1, 1, size=(2, 2, 3, 3)), rng.uniform(-1, 1, size=2)),
               (rng.uniform(-1, 1, size=(3, 2, 2, 2)), rng.uniform(-1, 1, size=3))]
    x = rng.uniform(-1, 1, size=(2, 17, 17))
    bt = propagate_bounds(arch, x, x, 0.0, 0.0, fixed_weights=kernels)
    net = ConvNet(kernels=kernels, head=(np.zeros((1, 12)), np.zeros(1)),
                  gamma=[np.ones(2), np.ones(3)], pools=[((2, 2), 2), None],
                  strides=[2, 2])
    for l, z in enumerate(forward_preactivations(net, x[None])):
        z = z[0].reshape(len(z[0]), -1)
        assert np.allclose(bt.layer(l).unit_lo, np.minimum(z.min(axis=1), 0.0))
        assert np.allclose(bt.layer(l).unit_hi, np.maximum(z.max(axis=1), 0.0))


def test_monotone_in_box_width():
    arch = DenseArch(2, [3], 1)
    lo, hi = -np.ones(2), np.ones(2)
    narrow = propagate_bounds(arch, lo, hi, -1.0, 1.0)
    wide = propagate_bounds(arch, lo, hi, -2.0, 2.0)
    assert wide.layer(0).z_lo <= narrow.layer(0).z_lo
    assert wide.layer(0).z_hi >= narrow.layer(0).z_hi


def test_infinite_input_box_rejected():
    arch = DenseArch(2, [2], 1)
    with pytest.raises(BoundsError):
        propagate_bounds(arch, np.array([0.0, -np.inf]), np.ones(2), -1.0, 1.0)


def test_relu_bounds_collapse():
    lb = LayerBounds(0, np.array([-1.0, -3.0]), np.array([2.0, 1.0]), "interval")
    bt = BoundsTable([lb])
    assert bt.relu_bounds(0) == (-3.0, 2.0)
    assert bt.relu_bounds(0, unit=1) == (-3.0, 1.0)
    assert lb.a_hi == 2.0
