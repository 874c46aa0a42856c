"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with its measured quantities.  Lines are written with capture suspended
so they appear in the terminal regardless of pytest's capture mode."""

import sys
import time

import numpy as np
import pytest

from mipnn.bounds import propagate_bounds
from mipnn.dense import build_dense, encode_relu, vn
from mipnn.cnn import encode_maxpool
from mipnn.emit import count_forecast, lp_text, model_stats, mps_text, \
    parse_lp, parse_mps
from mipnn.ir import (BINARY, CONTINUOUS, ModelIR, VarDef)
from mipnn.nnspec import Dataset, DenseArch, Hyper, VERIFY
from mipnn.oracle import InfeasibleError, branch_and_bound, enumerate_exact, \
    iter_candidates
from mipnn.recon import DenseNet, canonicalize, forward, forward_trace, \
    forward_preactivations, MetricsReport, reconstruct

from conftest import (quantized_dense_build, random_dense_weights,
                      verify_dense_build, xor_data)
from test_emitters import assert_models_equal, random_model


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num, ok, detail):
    line = "CRITERION %2d %s: %s\n" % (num, "PASS" if ok else "FAIL", detail)
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()
    assert ok, line


def test_criterion_01_relu_encoding_exactness():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(100):
        n_hidden = int(rng.integers(1, 4))
        widths = (int(rng.integers(1, 9)),) \
            + tuple(int(rng.integers(1, 9)) for _ in range(n_hidden)) \
            + (int(rng.integers(1, 9)),)
        build, weights, X = verify_dense_build(rng, widths, n_samples=10)
        bits = {name: 1.0 for name in build.structural}
        asg, _, viol = build.assemble(bits)
        assert viol <= 1e-6
        net = DenseNet(weights=weights, gamma=np.ones(n_hidden))
        trace = forward_trace(net, X)
        for i in range(10):
            for h in range(n_hidden):
                for j in range(widths[h + 1]):
                    worst = max(worst,
                                abs(asg.values[vn("z", i, h, j)] - trace[h][0][i, j]),
                                abs(asg.values[vn("a", i, h + 1, j)] - trace[h][1][i, j]))
    # dead unit: z pinned at 0 admits both indicator branches with a = 0
    both_ok = True
    for d_val in (0.0, 1.0):
        m = ModelIR()
        z = m.add_variable(VarDef("z", CONTINUOUS, 0.0, 0.0))
        a = m.add_variable(VarDef("a", CONTINUOUS, 0.0, 5.0))
        d = m.add_variable(VarDef("d", BINARY))
        encode_relu(m, z, a, d, -1.0, 5.0)
        m.freeze()
        both_ok &= m.evaluate_assignment(
            m.assignment({"z": 0.0, "a": 0.0, "d": d_val})).ok
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and both_ok and dt < 30.0
    _report(1, ok, "100 nets, worst activation error %.2e, z=0 dual-branch %s, "
            "%.1fs (< 30s)" % (worst, both_ok, dt))


def test_criterion_02_maxpool_exactness():
    rng = np.random.default_rng(22)
    t0 = time.monotonic()
    ok = True
    windows = [rng.uniform(-3, 3, size=4) for _ in range(990)]
    windows += [np.array([1.0, 1.0, 0.0, -1.0]),
                np.array([2.0, 2.0, 2.0, 2.0])] * 5
    for window in windows:
        true_max = float(np.max(window))
        for sel in range(4):
            m = ModelIR()
            refs = [m.add_variable(VarDef("a%d" % q, CONTINUOUS, v, v))
                    for q, v in enumerate(window)]
            p = m.add_variable(VarDef("p", CONTINUOUS, -10.0, 10.0))
            zetas = [m.add_variable(VarDef("zeta%d" % q, BINARY))
                     for q in range(4)]
            encode_maxpool(m, refs, p, zetas, 10.0)
            m.freeze()

            def feasible(p_val):
                v = {"p": p_val}
                for q in range(4):
                    v["a%d" % q] = float(window[q])
                    v["zeta%d" % q] = 1.0 if q == sel else 0.0
                return m.evaluate_assignment(m.assignment(v), tol=1e-9).ok

            ok &= feasible(true_max) == (window[sel] == true_max)
            ok &= not feasible(true_max + 1e-6)
            if window[sel] < true_max:
                ok &= not feasible(float(window[sel]))
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    _report(2, ok, "1000 windows: feasible p = true max within 1e-9, ties "
            "admit multiple selectors, %.1fs (< 5s)" % dt)


def test_criterion_03_variable_count_anchors():
    rng = np.random.default_rng(33)
    build, _, _ = verify_dense_build(rng, (4, 10, 10, 10, 3), n_samples=150)
    build_count = model_stats(build.model).binaries_by_family.get("delta", 0)
    dense_fc = count_forecast(DenseArch(4, [10, 10, 10], 3), 150)["delta"]

    from mipnn.nnspec import ConvArch, ConvLayer
    carch = ConvArch(input_shape=(1, 30, 30),
                     conv_layers=(ConvLayer(filters=20, kernel=(3, 3)),),
                     head_dim=10)
    cnn_fc = count_forecast(carch, 100)["delta"]
    # the forecast formula itself is validated against built models in the
    # unit suite; the full 1.57M-binary model is never materialized
    ok = build_count == 4500 and dense_fc == 4500 and cnn_fc == 1568000
    _report(3, ok, "dense delta count %d (want 4500), conv delta forecast %d "
            "(want 1568000)" % (build_count, cnn_fc))


def test_criterion_04_pruning_semantics():
    rng = np.random.default_rng(44)
    widths = (2, 2, 2, 1)
    arch = DenseArch(2, [2, 2], 1)
    weights = random_dense_weights(rng, widths)
    weights[1] = (np.zeros((2, 2)), np.zeros(2))
    X = rng.uniform(-1, 1, size=(3, 2))
    data = Dataset(inputs=X, targets=np.zeros((3, 1)))
    hyper = Hyper(mode=VERIFY, big_m=50.0, symmetry=False)
    bt = propagate_bounds(arch, X.min(0), X.max(0), 0.0, 0.0,
                          fixed_weights=weights)
    build = build_dense(arch, data, hyper, bt, weights=weights)
    build.model.freeze()
    assert len(build.structural) <= 20
    pruned_seen = 0
    clean = True
    for bits, _ in iter_candidates(build):
        asg, _, viol = build.assemble(bits)
        assert viol <= 1e-6
        if bits[vn("gamma", 1)] < 0.5:
            pruned_seen += 1
            for i in range(3):
                for j in range(2):
                    clean &= abs(asg.values[vn("z", i, 1, j)]) <= 1e-6
                    clean &= abs(asg.values[vn("a", i, 2, j)]) <= 1e-6
            for j in range(2):
                for k in range(2):
                    clean &= abs(asg.values[vn("W", 1, j, k)]) <= 1e-6
                clean &= abs(asg.values[vn("b", 1, j)]) <= 1e-6

    build2 = build_dense(arch, data, hyper, bt, weights=weights)
    build2.model.set_bounds(vn("gamma", 0), 0.0, 0.0)
    build2.model.freeze()
    root_infeasible = False
    try:
        enumerate_exact(build2)
    except InfeasibleError:
        root_infeasible = True
    ok = pruned_seen > 0 and clean and root_infeasible
    _report(4, ok, "%d pruned completions all zero within 1e-6, root switch "
            "off infeasible: %s" % (pruned_seen, root_infeasible))


def test_criterion_05_l1_linearization_tightness():
    worst = 0.0
    for seed, hidden in ((1, [1]), (2, [2]), (3, [1, 1])):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(3, 2))
        T = rng.uniform(-1, 1, size=(3, 1))
        build = quantized_dense_build(Dataset(inputs=X, targets=T), hidden,
                                      bits=1)
        assert build.hyper.alpha * build.hyper.lam == pytest.approx(0.09)
        res = enumerate_exact(build)
        for v in build.model.variables:
            if v.name.startswith("u["):
                w_val = res.assignment.values["W" + v.name[1:]]
                worst = max(worst,
                            abs(res.assignment.values[v.name] - abs(w_val)))
    ok = worst <= 1e-9
    _report(5, ok, "oracle-optimal u vs |W| worst gap %.2e (tol 1e-9)" % worst)


def test_criterion_06_xor_end_to_end():
    t0 = time.monotonic()
    build = quantized_dense_build(xor_data(), [2], bits=2)
    nbits = len(build.structural)
    enum = enumerate_exact(build)
    bnb = branch_and_bound(build)
    same = abs(enum.objective - bnb.objective) <= 1e-9
    fewer = bnb.nodes < 2 ** nbits
    pinned = abs(enum.objective - 0.5800000000000001) <= 1e-12
    net = reconstruct(build, enum.assignment)
    canon = canonicalize(net)
    out = forward(canon, build.data.inputs)[:, 0]
    correct = np.array_equal(np.round(out), [0.0, 1.0, 1.0, 0.0])
    dt = time.monotonic() - t0
    ok = same and fewer and pinned and correct and dt < 600.0
    _report(6, ok, "objective %.16g (pinned), engines agree %s, bnb %d nodes "
            "< 2^%d, all 4 points classified %s, %.0fs (< 600s)"
            % (enum.objective, same, bnb.nodes, nbits, correct, dt))


def test_criterion_07_bounds_soundness():
    rng = np.random.default_rng(77)
    t0 = time.monotonic()
    arch = DenseArch(3, [4, 3], 2)
    bt = propagate_bounds(arch, -np.ones(3), np.ones(3), -2.0, 2.0)
    escapes = 0
    for _ in range(100):
        weights = random_dense_weights(rng, (3, 4, 3, 2), scale=2.0)
        net = DenseNet(weights=weights, gamma=np.ones(2))
        X = rng.uniform(-1, 1, size=(100, 3))
        for l, z in enumerate(forward_preactivations(net, X)):
            lb = bt.layer(l)
            escapes += int(np.sum(z < lb.unit_lo[None, :] - 1e-12))
            escapes += int(np.sum(z > lb.unit_hi[None, :] + 1e-12))
    dt = time.monotonic() - t0
    ok = escapes == 0 and dt < 10.0
    _report(7, ok, "10000 random (weights, inputs): %d bound escapes, "
            "%.1fs (< 10s)" % (escapes, dt))


def test_criterion_08_emission_round_trip():
    rng = np.random.default_rng(88)
    bad = 0
    for tag in range(50):
        m = random_model(rng, tag)
        for writer, parser in ((lp_text, parse_lp), (mps_text, parse_mps)):
            text = writer(m)
            back = parser(text)
            try:
                assert_models_equal(m, back)
            except AssertionError:
                bad += 1
            if writer(back) != text:
                bad += 1
    ok = bad == 0
    _report(8, ok, "50 random models x {LP, MPS}: %d round-trip or "
            "re-emission mismatches" % bad)


def test_criterion_09_symmetry_canonicalization():
    rng = np.random.default_rng(99)
    weights = random_dense_weights(rng, (3, 5, 4, 2))
    net = DenseNet(weights=weights, gamma=np.ones(2))
    canon = canonicalize(net)
    X = rng.uniform(-2, 2, size=(1000, 3))
    out_gap = float(np.max(np.abs(forward(net, X) - forward(canon, X))))
    ordered = all(np.all(np.diff(canon.weights[l][0].sum(axis=1)) <= 1e-12)
                  for l in range(2))
    mism = 0
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        data = Dataset(inputs=r.uniform(-1, 1, size=(2, 1)),
                       targets=r.uniform(-1, 1, size=(2, 1)))
        free = enumerate_exact(quantized_dense_build(data, [2], bits=1,
                                                     symmetry=False))
        cons = enumerate_exact(quantized_dense_build(data, [2], bits=1,
                                                     symmetry=True))
        if abs(free.objective - cons.objective) > 1e-12:
            mism += 1
    ok = out_gap <= 1e-9 and ordered and mism == 0
    _report(9, ok, "canonical outputs gap %.2e on 1000 inputs, row sums "
            "ordered %s, symmetry-on objective mismatches %d of 20"
            % (out_gap, ordered, mism))


def test_criterion_10_table_formatting():
    dense = MetricsReport(accuracy=98.2, layer_sparsity=[63.6, None, None],
                          retained=[1, 0, 0], gap=4.0)
    conv = MetricsReport(accuracy=91.0, layer_sparsity=[62.5, 75.0],
                         retained=[1, 1, 1, 1, 0, 0], gap=20.3)
    row = dense.render_dense_row()
    block = conv.render_cnn_row()
    ok = (row == "[1, 0, 0] / [63.6, -, -] / 98.2 / 4.0"
          and block == "91.0 / 4 of 6 / 62.5 / 75.0 / 20.3")
    _report(10, ok, "rendered %r and %r" % (row, block))
