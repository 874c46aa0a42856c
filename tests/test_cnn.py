import itertools

import numpy as np
import pytest

from mipnn.bounds import propagate_bounds
from mipnn.cnn import build_cnn, encode_maxpool
from mipnn.dense import BuildError, vn
from mipnn.emit import count_forecast, model_stats
from mipnn.ir import BINARY, CONTINUOUS, ModelIR, VarDef
from mipnn.nnspec import (TRAIN_QUANTIZED, VERIFY, ConvArch, ConvLayer,
                          Dataset, Hyper)
from mipnn.recon import (ConvNet, ReconError, flatten_index, forward,
                         forward_trace)

from conftest import tiny_conv_build


def test_flatten_index_bijection():
    C, H, W = 3, 4, 5
    seen = set()
    for c in range(C):
        for h in range(H):
            for w in range(W):
                f = flatten_index(c, h, w, H, W)
                assert 0 <= f < C * H * W
                seen.add(f)
    assert len(seen) == C * H * W
    # channel-major: within a channel, rows are contiguous
    assert flatten_index(0, 0, 1, H, W) == 1
    assert flatten_index(0, 1, 0, H, W) == W
    assert flatten_index(1, 0, 0, H, W) == H * W


def test_flatten_index_rejects_out_of_range():
    with pytest.raises(ReconError):
        flatten_index(0, 4, 0, 4, 5)
    with pytest.raises(ReconError):
        flatten_index(-1, 0, 0, 4, 5)


def _maxpool_feasible_ps(window, zeta, big_m=10.0):
    m = ModelIR()
    refs = [m.add_variable(VarDef("a%d" % q, CONTINUOUS, v, v))
            for q, v in enumerate(window)]
    p = m.add_variable(VarDef("p", CONTINUOUS, -big_m, big_m))
    zetas = [m.add_variable(VarDef("zeta%d" % q, BINARY))
             for q in range(len(window))]
    encode_maxpool(m, refs, p, zetas, big_m)
    m.freeze()

    def feasible(p_val):
        values = {"p": p_val}
        for q, v in enumerate(window):
            values["a%d" % q] = v
            values["zeta%d" % q] = float(zeta[q])
        return m.evaluate_assignment(m.assignment(values)).ok

    return feasible


def test_maxpool_selects_exact_max():
    rng = np.random.default_rng(7)
    for _ in range(50):
        window = rng.uniform(-3, 3, size=4)
        true_max = window.max()
        arg = int(window.argmax())
        for sel in range(4):
            zeta = [1 if q == sel else 0 for q in range(4)]
            feasible = _maxpool_feasible_ps(window, zeta)
            # p = max is feasible exactly when the selected cell is maximal
            assert feasible(true_max) == (window[sel] == true_max)
            assert not feasible(true_max + 1e-3)
            if window[arg] > window[sel]:
                assert not feasible(window[sel])


def test_maxpool_tie_windows_admit_multiple_selectors_unique_p():
    window = [2.0, 2.0, 1.0, 0.0]
    ok = []
    for sel in range(4):
        zeta = [1 if q == sel else 0 for q in range(4)]
        feasible = _maxpool_feasible_ps(window, zeta)
        if feasible(2.0):
            ok.append(sel)
        assert not feasible(2.5) and not feasible(1.9999)
    assert ok == [0, 1]


def test_conv_verify_reproduces_forward_pass(rng):
    build = tiny_conv_build(rng, n_samples=3, mode=VERIFY)
    bits = {name: 1.0 for name in build.structural}
    asg, obj, viol = build.assemble(bits)
    assert viol <= 1e-6
    net = build.extract_net(asg.x)
    trace = forward_trace(net, build.data.inputs)
    z, a = trace[0]
    for i in range(3):
        for c in range(2):
            for h in range(2):
                for w in range(2):
                    assert asg.values[vn("z", i, 0, c, h, w)] == pytest.approx(
                        z[i, c, h, w], abs=1e-9)
            assert asg.values[vn("p", i, 0, c, 0, 0)] == pytest.approx(
                a[i, c, 0, 0], abs=1e-9)
        assert asg.values[vn("a", i, 2, 0)] == pytest.approx(
            trace[-1][1][i, 0], abs=1e-9)


def test_weight_sharing_occurrence_count(rng):
    """Each kernel coefficient appears in exactly one affine row per output
    cell per sample, i.e. the convolution is fully unrolled with shared
    weights rather than per-position copies."""
    build = tiny_conv_build(rng, n_samples=2, mode=VERIFY, pool=None)
    # verify mode folds fixed weights into coefficients, so count z rows
    z_rows = sum(1 for con in build.model.constraints if con.label == "conv_map")
    assert z_rows == 2 * 2 * 2 * 2   # samples x channels x 2x2 output cells
    # in quantized mode the single shared kernel variable appears in every
    # affine row of its channel (inputs are constants, so the first layer
    # stays linear in the weights)
    qbuild = tiny_conv_build(rng, n_samples=2, mode=TRAIN_QUANTIZED, pool=None)
    name = vn("Wc", 0, 0, 0, 1, 1)
    hits = sum(1 for con in qbuild.model.constraints if con.label == "conv_map"
               and any(r.name == name for _, r in con.terms))
    assert hits == 2 * 2 * 2   # samples x output cells for channel 0


def test_channel_pruning_zeroes_channel(rng):
    arch = ConvArch(input_shape=(1, 3, 3),
                    conv_layers=(ConvLayer(filters=2, kernel=(2, 2)),),
                    head_dim=1)
    K = rng.uniform(-1, 1, size=(2, 1, 2, 2))
    K[1] = 0.0
    b = np.array([rng.uniform(-1, 1), 0.0])
    head = (rng.uniform(-1, 1, size=(1, 2 * 4)), rng.uniform(-1, 1, size=1))
    weights = [(K, b), head]
    X = rng.uniform(0, 1, size=(2, 1, 3, 3))
    data = Dataset(inputs=X, targets=np.zeros((2, 1)))
    hyper = Hyper(mode=VERIFY, big_m=20.0, symmetry=False)
    bt = propagate_bounds(arch, X.min(0).reshape(1, 3, 3),
                          X.max(0).reshape(1, 3, 3), 0.0, 0.0,
                          fixed_weights=weights)
    build = build_cnn(arch, data, hyper, bt, weights=weights)
    build.model.freeze()
    bits = {vn("gamma", 0, 0): 1.0, vn("gamma", 0, 1): 0.0}
    asg, _, viol = build.assemble(bits)
    assert viol <= 1e-6
    for i in range(2):
        for h in range(2):
            for w in range(2):
                assert abs(asg.values[vn("z", i, 0, 1, h, w)]) <= 1e-6
                assert abs(asg.values[vn("a", i, 1, 1, h, w)]) <= 1e-6


def test_complete_matches_audit_on_random_candidates(rng):
    # at 2 bits the kernels' |K| sums differ, so symmetry breaking can bite
    for width, symmetry in ((1, False), (2, True)):
        build = tiny_conv_build(rng, n_samples=2, bits=width, mode=TRAIN_QUANTIZED,
                                symmetry=symmetry)
        names = build.structural
        for _ in range(30):
            bits = {n: float(rng.integers(0, 2)) for n in names}
            obj, viol, _ = build.complete(bits)
            asg, obj2, viol2 = build.assemble(bits)
            rep = build.model.evaluate_assignment(asg)
            assert (viol <= 1e-6) == rep.ok
            if rep.ok:
                assert obj == pytest.approx(rep.objective, abs=1e-9)


def test_forecast_matches_built_stats(rng):
    """The closed-form binary forecast agrees with direct model counts."""
    build = tiny_conv_build(rng, n_samples=2, bits=1, mode=TRAIN_QUANTIZED)
    stats = model_stats(build.model)
    hyper = build.hyper
    fc = count_forecast(build.arch, 2, hyper)
    assert stats.binaries_by_family.get("delta", 0) == fc["delta"]
    assert stats.binaries_by_family.get("gamma", 0) == fc["gamma"]
    assert stats.binaries_by_family.get("zeta", 0) == fc["zeta"]
    digits = (stats.binaries_by_family.get("d", 0)
              + stats.binaries_by_family.get("db", 0))
    assert digits == fc["digits"]


def test_forecast_dense_matches_built_stats(rng):
    from conftest import quantized_dense_build, xor_data
    build = quantized_dense_build(xor_data(), [2, 2], bits=2)
    stats = model_stats(build.model)
    fc = count_forecast(build.arch, 4, build.hyper)
    assert stats.binaries_by_family["delta"] == fc["delta"]
    assert stats.binaries_by_family["gamma"] == fc["gamma"]
    assert stats.binaries_by_family["d"] == fc["digits"]


def test_quantized_conv_requires_quantized_biases(rng):
    arch = ConvArch(input_shape=(1, 3, 3),
                    conv_layers=(ConvLayer(filters=1, kernel=(2, 2)),),
                    head_dim=1)
    X = np.zeros((1, 1, 3, 3))
    data = Dataset(inputs=X, targets=np.zeros((1, 1)))
    hyper = Hyper(mode=TRAIN_QUANTIZED, bits=1, quantize_biases=False,
                  symmetry=False)
    bt = propagate_bounds(arch, X[0], X[0], -1.0, 1.0)
    with pytest.raises(BuildError):
        build_cnn(arch, data, hyper, bt)


@pytest.mark.parametrize("pool", [((2, 2), 1), ((2, 1), 1), ((1, 2), 1)])
def test_overlapping_pool_rejected_by_builder_only(rng, pool):
    """Overlapping windows would share the selectors zeta, which are indexed
    by pre-pool cell; the builder refuses such pools, while bounds and the
    forward pass still accept them."""
    layer = ConvLayer(filters=1, kernel=(2, 2), pool=pool)
    arch = ConvArch(input_shape=(1, 5, 5), conv_layers=(layer,), head_dim=1)
    (ph, pw), _ = pool
    X = rng.uniform(0, 1, size=(2, 1, 5, 5))
    weights = [(rng.uniform(-1, 1, size=(1, 1, 2, 2)), rng.uniform(-1, 1, size=1)),
               (rng.uniform(-1, 1, size=(1, (5 - ph) * (5 - pw))),
                rng.uniform(-1, 1, size=1))]
    bt = propagate_bounds(arch, X.min(0), X.max(0), 0.0, 0.0,
                          fixed_weights=weights)
    net = ConvNet(kernels=weights[:1], head=weights[1], gamma=[np.ones(1)],
                  pools=[pool])
    assert forward(net, X).shape == (2, 1)
    data = Dataset(inputs=X, targets=np.zeros((2, 1)))
    with pytest.raises(BuildError, match="overlaps"):
        build_cnn(arch, data, Hyper(mode=VERIFY, symmetry=False), bt,
                  weights=weights)


def test_zeta_assembled_on_first_argmax(rng):
    build = tiny_conv_build(rng, n_samples=1, mode=VERIFY)
    bits = {name: 1.0 for name in build.structural}
    asg, _, viol = build.assemble(bits)
    assert viol <= 1e-6
    net = build.extract_net(asg.x)
    a = np.maximum(forward_trace(net, build.data.inputs)[0][0], 0.0)
    for c in range(2):
        chosen = [(h, w) for h in range(2) for w in range(2)
                  if asg.values[vn("zeta", 0, 0, c, h, w)] == 1.0]
        assert len(chosen) == 1
        h, w = chosen[0]
        assert a[0, c, h, w] == a[0, c].max()