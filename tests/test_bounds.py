import numpy as np
import pytest

from mipnn.bounds import (BoundsError, BoundsTable, LayerBounds, _widen,
                          propagate_bounds)
from mipnn.nnspec import ConvArch, ConvLayer, DenseArch
from mipnn.recon import DenseNet, forward_preactivations

from conftest import random_dense_weights


def test_widen_expands_away_from_zero_and_includes_zero():
    lo, hi = _widen(1.0, 2.0, 0.5)
    assert lo == 0.0 and hi == 3.0
    lo, hi = _widen(-2.0, -1.0, 0.5)
    assert lo == -3.0 and hi == 0.0
    lo, hi = _widen(-1.0, 1.0, 0.5)
    assert lo == -1.5 and hi == 1.5


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


def test_interval_soundness_conv(rng):
    arch = ConvArch(input_shape=(1, 5, 5),
                    conv_layers=(ConvLayer(filters=2, kernel=(3, 3),
                                           pool=((2, 2), 1)),),
                    head_dim=1)
    in_lo = np.zeros((1, 5, 5))
    in_hi = np.ones((1, 5, 5))
    bt = propagate_bounds(arch, in_lo, in_hi, -1.0, 1.0)
    lb = bt.layer(0)
    from mipnn.recon import ConvNet
    for _ in range(50):
        K = rng.uniform(-1, 1, size=(2, 1, 3, 3))
        b = rng.uniform(-1, 1, size=2)
        net = ConvNet(kernels=[(K, b)], head=(np.zeros((1, 2 * 4)), np.zeros(1)),
                      gamma=[np.ones(2)], pools=[((2, 2), 1)])
        X = rng.uniform(0, 1, size=(20, 1, 5, 5))
        z = forward_preactivations(net, X)[0]
        for c in range(2):
            assert np.all(z[:, c] >= lb.unit_lo[c] - 1e-9)
            assert np.all(z[:, c] <= lb.unit_hi[c] + 1e-9)


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
