import numpy as np
import pytest
from scipy.signal import correlate

from mipnn.recon import (ConvNet, DenseNet, MetricsReport, QuantSpec,
                         ReconError, audit, canonicalize, flatten_index,
                         forward, forward_trace, maxpool2d, metrics,
                         reconstruct)
from mipnn.nnspec import Dataset, Hyper, TRAIN_QUANTIZED, VERIFY, take

from conftest import (quantized_dense_build, random_dense_weights,
                      tiny_conv_build, verify_dense_build, xor_data)


def test_forward_dense_matches_manual():
    W1 = np.array([[1.0, -1.0], [0.5, 0.5]])
    b1 = np.array([0.0, -0.5])
    W2 = np.array([[2.0, -1.0]])
    b2 = np.array([0.25])
    net = DenseNet(weights=[(W1, b1), (W2, b2)], gamma=np.ones(1))
    x = np.array([[1.0, 2.0]])
    a1 = np.maximum(x @ W1.T + b1, 0.0)
    want = a1 @ W2.T + b2
    assert np.allclose(forward(net, x), want)


@pytest.mark.parametrize("c_in,stride,pool", [
    (3, 1, None), (1, 2, None), (2, 2, ((2, 2), 2)), (4, 1, ((3, 2), 3)),
    # a pooled layer feeding a strided layer: 17x16 -> 15x14 -> 7x7 -> 3x3
    pytest.param(2, (1, 2), (((2, 2), 2), None), id="pooled-then-strided")])
def test_conv_forward_matches_scipy(rng, c_in, stride, pool):
    """Unrolled convolution against an independent correlation implementation,
    its pool stage against each window's maximum taken by hand, and the head
    against each flattened cell's weight, layer by layer.  ``stride`` and
    ``pool`` are one layer's, or a tuple of them per layer."""
    strides, pools = (stride, pool) if isinstance(stride, tuple) else ((stride,), (pool,))
    x = rng.uniform(-1, 1, size=(2, c_in, 17, 16))
    kernels, (c, h, w) = [], x.shape[1:]
    for l, (s, p) in enumerate(zip(strides, pools)):
        kernels.append((rng.uniform(-1, 1, size=(2 + l, c, 3, 3)),
                        rng.uniform(-1, 1, size=2 + l)))
        window, ps = p or ((1, 1), 1)
        oh, ow = (h - 3) // s + 1, (w - 3) // s + 1
        c, h, w = 2 + l, (oh - window[0]) // ps + 1, (ow - window[1]) // ps + 1
    head = (rng.uniform(-1, 1, size=(2, c * h * w)), rng.uniform(-1, 1, size=2))
    net = ConvNet(kernels=kernels, head=head, gamma=[np.ones(len(b)) for _, b in kernels],
                  pools=list(pools), strides=list(strides))
    trace = forward_trace(net, x)
    a = x
    for (K, b), s, p, (z, q) in zip(kernels, strides, pools, trace):
        window, ps = p or ((1, 1), 1)
        qh, qw = ((size - span) // ps + 1 for size, span in zip(z.shape[2:], window))
        assert z.shape[:2] == q.shape[:2] == (2, len(K)) and q.shape[2:] == (qh, qw)
        for i in range(2):
            for k in range(len(K)):
                want = sum(correlate(a[i, cp], K[k, cp], mode="valid")
                           for cp in range(K.shape[1]))[::s, ::s] + b[k]
                assert z[i, k].shape == want.shape
                assert np.allclose(z[i, k], want, atol=1e-12)
                act = np.maximum(z[i, k], 0.0)
                for u in range(qh):
                    for v in range(qw):
                        cell = act[u * ps:u * ps + window[0], v * ps:v * ps + window[1]]
                        assert q[i, k, u, v] == cell.max()
        a = q
    assert a.shape[1:] == (c, h, w)
    out, _ = trace[-1]
    for i in range(2):
        want = head[1] + sum(head[0][:, flatten_index(*cell, h, w)] * a[(i,) + cell]
                             for cell in np.ndindex(c, h, w))
        assert np.allclose(out[i], want, atol=1e-12)


def test_maxpool2d(rng):
    a = rng.uniform(-1, 1, size=(2, 3, 4, 4))
    p = maxpool2d(a, (2, 2), 2)
    assert p.shape == (2, 3, 2, 2)
    assert p[1, 2, 0, 1] == a[1, 2, 0:2, 2:4].max()


def test_flatten_matches_reshape(rng):
    """The head sees exactly numpy's C-order flattening of the final map."""
    a = rng.uniform(-1, 1, size=(3, 4, 5))
    flat = a.reshape(-1)
    for c in range(3):
        for h in range(4):
            for w in range(5):
                assert flat[flatten_index(c, h, w, 4, 5)] == a[c, h, w]


def test_quantspec_decode_endpoints():
    q = QuantSpec(3, 2.0)
    assert q.decode([0, 0, 0]) == -2.0
    assert q.decode([1, 1, 1]) == 2.0
    assert q.step == pytest.approx(4.0 / 7.0)


def test_canonicalize_orders_rows_and_preserves_function(rng):
    widths = (3, 5, 4, 2)
    weights = random_dense_weights(rng, widths)
    net = DenseNet(weights=weights, gamma=np.ones(2))
    canon = canonicalize(net)
    X = rng.uniform(-2, 2, size=(1000, 3))
    assert np.max(np.abs(forward(net, X) - forward(canon, X))) <= 1e-9
    for l in range(2):
        sums = canon.weights[l][0].sum(axis=1)
        assert np.all(np.diff(sums) <= 1e-12)


def test_canonicalize_idempotent(rng):
    net = DenseNet(weights=random_dense_weights(rng, (2, 3, 1)),
                   gamma=np.ones(1))
    once = canonicalize(net)
    twice = canonicalize(once)
    for (W1, b1), (W2, b2) in zip(once.weights, twice.weights):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)


def test_canonicalize_rejects_conv():
    net = ConvNet(kernels=[], head=(np.zeros((1, 1)), np.zeros(1)),
                  gamma=[], pools=[])
    with pytest.raises(ReconError):
        canonicalize(net)


def test_audit_flags_wrong_relu_indicator(rng):
    build, _, _ = verify_dense_build(rng, (2, 2, 1), n_samples=2)
    bits = {name: 1.0 for name in build.structural}
    asg, _, viol = build.assemble(bits)
    assert viol <= 1e-6
    assert audit(build, asg).ok
    # force one indicator against the sign of a nonzero pre-activation
    z_name, d_name = next((z, d) for z, d in build.relu_pairs()
                          if abs(asg.values[z]) > 1e-6)
    k = build.model.var_index[d_name]
    asg.x[k] = 1.0 - asg.x[k]
    rep = audit(build, asg)
    assert not rep.ok
    assert any(v.label == "relu_indicator:" + d_name for v in rep.violations)


def test_reconstruct_requires_clean_audit(rng):
    build, weights, X = verify_dense_build(rng, (2, 3, 1), n_samples=2)
    bits = {name: 1.0 for name in build.structural}
    asg, _, _ = build.assemble(bits)
    net = reconstruct(build, asg)
    assert np.allclose(forward(net, X),
                       forward(DenseNet(weights=weights, gamma=np.ones(1)), X))
    asg.x[build.relu_z[0]] += 1.0
    with pytest.raises(ReconError):
        reconstruct(build, asg)


def test_metrics_accuracy_and_sparsity():
    W1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    b1 = np.zeros(2)
    W2 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b2 = np.array([0.0, 0.5])
    net = DenseNet(weights=[(W1, b1), (W2, b2)], gamma=np.ones(1))
    X = np.array([[2.0, 0.0], [0.1, 0.0]])
    T = np.array([[1.0, 0.0], [0.0, 1.0]])
    data = Dataset(inputs=X, targets=T)
    rep = metrics(net, data, hyper=Hyper())
    assert rep.accuracy == 100.0
    assert rep.layer_sparsity[0] == pytest.approx(75.0)
    assert rep.neuron_counts[0] == 1
    assert rep.objective_breakdown["structural"] == pytest.approx(0.01)


def test_metrics_pruned_layer_reports_dash():
    W1 = np.zeros((2, 2))
    net = DenseNet(weights=[(W1, np.zeros(2)),
                            (np.zeros((1, 2)), np.zeros(1))],
                   gamma=np.zeros(1))
    data = Dataset(inputs=np.zeros((1, 2)), targets=np.zeros((1, 1)))
    rep = metrics(net, data)
    assert rep.layer_sparsity[0] is None
    assert "-" in rep.render_dense_row()


def test_dense_row_rendering():
    rep = MetricsReport(accuracy=98.2, layer_sparsity=[63.6, None, None],
                        retained=[1, 0, 0], gap=4.0)
    assert rep.render_dense_row() == "[1, 0, 0] / [63.6, -, -] / 98.2 / 4.0"


def test_cnn_row_rendering():
    rep = MetricsReport(accuracy=91.0, layer_sparsity=[62.5, 75.0],
                        retained=[1, 1, 1, 1, 0, 0], gap=20.3)
    assert rep.render_cnn_row() == "91.0 / 4 of 6 / 62.5 / 75.0 / 20.3"
    block = rep.render_cnn_block()
    assert "Retained Filters" in block and "4 of 6" in block


def test_metrics_split_bounds_checked():
    net = DenseNet(weights=[(np.zeros((1, 1)), np.zeros(1)),
                            (np.zeros((1, 1)), np.zeros(1))],
                   gamma=np.ones(1))
    data = Dataset(inputs=np.zeros((2, 1)), targets=np.zeros((2, 1)))
    with pytest.raises(ReconError):
        metrics(net, data, split=[5])


def test_all_nan_solution_fails_audit_and_reconstruction(rng):
    build, _, _ = verify_dense_build(rng, (2, 3, 1), n_samples=3)
    asg = build.model.assignment({v.name: float("nan")
                                  for v in build.model.variables})
    assert not audit(build, asg).ok
    with pytest.raises(ReconError, match="integrality"):
        reconstruct(build, asg)


@pytest.mark.parametrize("make", [
    lambda: quantized_dense_build(xor_data(), [2, 2], bits=2, symmetry=False),
    lambda: tiny_conv_build(n_samples=3, bits=2),
    lambda: tiny_conv_build(n_samples=3, mode=VERIFY),
], ids=["dense-quantized", "conv-quantized", "conv-verify"])
def test_metrics_total_is_the_complete_objective(make):
    """The objective the search ranks candidates by and the one metrics.txt
    reports for the reconstructed net are the same float."""
    build = make()
    rng = np.random.default_rng(7)
    bits = {name: 1.0 if name.startswith("gamma") else float(rng.integers(0, 2))
            for name in build.structural}
    obj, viol, _ = build.complete(bits)
    asg, obj2, _ = build.assemble(bits)
    assert viol <= 1e-6
    net = reconstruct(build, asg)
    total = metrics(net, build.data, hyper=build.hyper).objective_breakdown["total"]
    assert total == obj == obj2


def _split_nets(rng):
    dense = DenseNet(weights=random_dense_weights(rng, (4, 3, 3)), gamma=np.ones(1))
    conv = ConvNet(kernels=[(rng.uniform(-1, 1, size=(2, 1, 2, 2)),
                             rng.uniform(-1, 1, size=2))],
                   head=(rng.uniform(-1, 1, size=(3, 8)), rng.uniform(-1, 1, size=3)),
                   gamma=[np.array([1.0, 0.0])], pools=[((2, 2), 2)])
    return {"dense": (dense, (4,)), "conv": (conv, (1, 5, 5))}


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_metrics_on_a_split_are_the_metrics_of_its_samples(rng, kind):
    net, shape = _split_nets(rng)[kind]
    labels = rng.integers(0, 3, size=7)
    data = Dataset(inputs=rng.uniform(-1, 1, size=(7,) + shape),
                   targets=np.eye(3)[labels])
    split = [5, 0, 5, 2]
    kw = dict(reported_gap=1.5, hyper=Hyper(beta=0.5))
    want = metrics(net, take(data, split), **kw)
    assert metrics(net, data, split=split, **kw).to_kv_lines() == want.to_kv_lines()
    assert want.to_kv_lines() != metrics(net, data, **kw).to_kv_lines()
