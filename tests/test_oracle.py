import itertools
import tracemalloc

import numpy as np
import pytest

from mipnn.dense import vn
from mipnn.ir import LE
from mipnn.nnspec import TRAIN_BILINEAR, ConvArch, ConvLayer, Dataset, DenseArch, Hyper
from mipnn.bounds import propagate_bounds
from mipnn.cnn import build_cnn
from mipnn.dense import build_dense
from mipnn.oracle import (InfeasibleError, OracleError, TimeoutExceededError,
                          TooManyBinariesError, _structural_domains,
                          branch_and_bound, enumerate_exact, iter_candidates)
from mipnn.recon import forward, forward_preactivations, reconstruct

from conftest import (quantized_dense_build, tiny_conv_build, verify_dense_build,
                      xor_data)


def small_build(**kw):
    return quantized_dense_build(xor_data(), [1], bits=1, **kw)


def test_enumeration_and_bnb_agree():
    build = quantized_dense_build(xor_data(), [2], bits=1)
    a = enumerate_exact(build)
    b = branch_and_bound(build)
    assert b.objective == pytest.approx(a.objective, abs=1e-12)
    assert b.proven and b.nodes < a.nodes
    # identical lexicographically smallest optimum
    assert a.assignment.values == b.assignment.values


def test_enumeration_candidates_subset_of_cube():
    build = small_build(symmetry=False)
    cands = list(iter_candidates(build))
    assert 0 < len(cands) <= 2 ** len(build.structural)
    objs = [o for _, o in cands]
    res = enumerate_exact(build)
    assert res.objective == pytest.approx(min(objs), abs=1e-12)
    assert res.candidates == len(cands)


def test_winner_passes_full_audit_and_reconstructs():
    build = small_build()
    res = enumerate_exact(build)
    net = reconstruct(build, res.assignment)
    out = forward(net, build.data.inputs)
    for i in range(4):
        assert res.assignment.values[vn("a", i, 2, 0)] == pytest.approx(
            out[i, 0], abs=1e-9)


def test_verify_mode_delta_matches_sign_pattern(rng):
    build, weights, X = verify_dense_build(rng, (2, 3, 1), n_samples=4)
    res = enumerate_exact(build)
    from mipnn.recon import DenseNet
    net = DenseNet(weights=weights, gamma=np.ones(1))
    z = forward_preactivations(net, X)[0]
    for i in range(4):
        for j in range(3):
            d = res.assignment.values[vn("delta", i, 0, j)]
            if abs(z[i, j]) > 1e-6:
                assert d == (1.0 if z[i, j] > 0 else 0.0)


def test_limit_bits_enforced():
    build = quantized_dense_build(xor_data(), [2], bits=2)
    assert len(build.structural) == 19
    with pytest.raises(TooManyBinariesError):
        enumerate_exact(build, limit_bits=10)
    with pytest.raises(TooManyBinariesError):
        branch_and_bound(build, limit_bits=10)


def test_bilinear_mode_rejected():
    data = xor_data()
    arch = DenseArch(2, [1], 1)
    hyper = Hyper(mode=TRAIN_BILINEAR, big_m=5.0)
    bt = propagate_bounds(arch, data.inputs.min(0), data.inputs.max(0),
                          -5.0, 5.0)
    build = build_dense(arch, data, hyper, bt)
    build.model.freeze()
    with pytest.raises(OracleError):
        enumerate_exact(build)


def test_injected_constraint_honored():
    """A constraint added after the build restricts the search."""
    build = small_build(freeze=False)
    g = build.model.var(vn("gamma", 0))
    # force the structural penalty up by demanding gamma[0] <= 0: infeasible
    # because the root layer must stay active
    build.model.add_constraint([(1.0, g)], LE, 0.0, "forced_off")
    build.model.freeze()
    with pytest.raises(InfeasibleError):
        enumerate_exact(build)


def test_bound_fixing_restricts_enumeration():
    build = small_build(freeze=False)
    d_name = build._digit_names[(0, 0, 0)][0]
    build.model.set_bounds(d_name, 1.0, 1.0)
    build.model.freeze()
    res = enumerate_exact(build)
    assert res.assignment.values[d_name] == 1.0
    # the unrestricted optimum sets this digit to 0, so fixing costs objective
    free = enumerate_exact(small_build())
    assert res.objective >= free.objective


def test_timeout_enumeration_raises():
    build = quantized_dense_build(xor_data(), [1], bits=2)
    with pytest.raises(TimeoutExceededError):
        enumerate_exact(build, timeout=0.0)


def test_timeout_bnb_unproven():
    build = small_build()
    res = branch_and_bound(build, timeout=0.0)
    assert not res.proven and res.assignment is None


def test_budget_exhaustion_unproven():
    build = small_build()
    res = branch_and_bound(build, budget=3)
    assert not res.proven
    assert res.nodes <= 3


def test_bnb_bound_on_exhausted_budget_never_falls():
    """A budget that runs out reports a lower bound of every leaf left
    undone, so a larger budget cannot report a lower one."""
    build = quantized_dense_build(xor_data(), [2], bits=2)
    results = [branch_and_bound(build, budget=b) for b in (60000, 150000, 250000)]
    bounds = [r.bound for r in results]
    assert not any(r.proven for r in results)
    assert bounds == sorted(bounds)
    assert bounds[-1] <= 0.5800000000000001


def test_bnb_cuts_a_pruned_layer_on_the_audit_tolerance():
    """Weights within tol of zero satisfy a pruned layer's gate in complete
    and the audit, so bnb must not cut them as infeasible."""
    build = quantized_dense_build(xor_data(), [1, 1], bits=1, w_max=1e-7)
    want = enumerate_exact(build)
    got = branch_and_bound(build)
    assert got.proven
    assert got.objective == want.objective == pytest.approx(2.009999636, abs=1e-12)
    assert got.assignment.values == want.assignment.values


def test_objective_matches_direct_computation():
    """The oracle objective equals loss plus elastic net plus structural terms
    computed from the reconstructed network alone."""
    build = small_build()
    res = enumerate_exact(build)
    net = reconstruct(build, res.assignment)
    h = build.hyper
    out = forward(net, build.data.inputs)
    loss = float(((out - build.data.targets) ** 2).sum())
    l1 = sum(float(np.abs(W).sum()) for W, _ in net.weights)
    fro = sum(float((W ** 2).sum()) for W, _ in net.weights)
    total = (loss + h.alpha * h.lam * l1
             + 0.5 * h.alpha * (1 - h.lam) * fro + h.beta * float(net.gamma.sum()))
    assert res.objective == pytest.approx(total, abs=1e-9)


# -- the block-evaluated search against the scalar reference listing ---------

def _first_minimum(build):
    """Lexicographically first strict minimum of the scalar listing."""
    best = None
    for bits, obj in iter_candidates(build):
        if best is None or obj < best[1]:
            best = (bits, obj)
    return best


def _assert_engines_match_listing(build):
    bits, obj = _first_minimum(build)
    want = build.assemble(bits)[0].values
    for res in (enumerate_exact(build), branch_and_bound(build)):
        assert res.proven and res.objective == obj
        assert res.assignment.values == want
        assert all(type(res.assignment.values[n]) is float
                   for n in build.structural)


def _dense_build(data, hidden, freeze=True, **hyper_kw):
    arch = DenseArch(data.inputs.shape[1], list(hidden), data.targets.shape[1])
    kw = dict(alpha=0.1, lam=0.9, beta=0.01, big_m=10.0, mode="train-quantized",
              bits=1, w_max=1.0, quantize_biases=True)
    kw.update(hyper_kw)
    hyper = Hyper(**kw)
    bt = propagate_bounds(arch, data.inputs.min(0), data.inputs.max(0),
                          -hyper.w_max, hyper.w_max)
    build = build_dense(arch, data, hyper, bt)
    if freeze:
        build.model.freeze()
    return build


@pytest.mark.parametrize("symmetry", [True, False])
def test_search_matches_listing_on_criterion_9_seeds(symmetry):
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        data = Dataset(inputs=r.uniform(-1, 1, size=(2, 1)),
                       targets=r.uniform(-1, 1, size=(2, 1)))
        _assert_engines_match_listing(
            quantized_dense_build(data, [2], bits=1, symmetry=symmetry))


@pytest.mark.parametrize("hidden, bits", [([2], 1), ([1], 2)])
def test_search_matches_listing_on_xor(hidden, bits):
    _assert_engines_match_listing(
        quantized_dense_build(xor_data(), hidden, bits=bits))


def test_search_matches_listing_abs_loss():
    _assert_engines_match_listing(
        quantized_dense_build(xor_data(), [2], bits=1, loss="abs"))


def test_search_matches_listing_two_hidden_layers_per_unit_bounds():
    """Two pruning switches (ordering, gates on a switched-off layer) and
    per-unit pre-activation bounds."""
    for per_unit in (False, True):
        _assert_engines_match_listing(
            _dense_build(xor_data(), [1, 1], per_unit_bounds=per_unit))


def test_search_matches_listing_with_injected_constraint():
    free = enumerate_exact(small_build())
    build = small_build(freeze=False)
    # demand the opposite sign of the free optimum's first weight
    w = build.model.var(vn("W", 0, 0, 0))
    sign = 1.0 if free.assignment.values[w.name] > 0 else -1.0
    build.model.add_constraint([(sign, w)], LE, 0.0, "flip_first_weight")
    build.model.freeze()
    _assert_engines_match_listing(build)
    res = enumerate_exact(build)
    assert sign * res.assignment.values[w.name] <= 0.0
    assert res.objective >= free.objective
    assert res.assignment.values != free.assignment.values


def test_search_matches_listing_with_bound_fixing():
    build = quantized_dense_build(xor_data(), [2], bits=1, freeze=False)
    build.model.set_bounds(build._digit_names[(1, 0, 0)][0], 1.0, 1.0)
    build.model.freeze()
    _assert_engines_match_listing(build)


def test_search_matches_listing_on_near_ties():
    """A tiny elastic net leaves many leaves within 1e-5 of each other, so a
    screen that skipped more than its margin would lose the optimum."""
    _assert_engines_match_listing(
        _dense_build(xor_data(), [1], bits=2, alpha=1e-5))


def _tightened(build, scale):
    """Pre-activation bounds shrunk after the build, unit j by scale^(j+1),
    so that the bound checks of complete() bite."""
    for l in range(build.L):
        lb = build.btable.layer(l)
        factor = scale ** np.arange(1, len(lb.unit_lo) + 1)
        lb.unit_lo, lb.unit_hi = factor * lb.unit_lo, factor * lb.unit_hi
    return build


def _line_data():
    """Three samples of one input: a net over them has few weight digits."""
    return Dataset(inputs=np.array([[0.0], [0.5], [1.0]]),
                   targets=np.array([[1.0], [0.0], [1.0]]))


def _fixed(build, count):
    """``build`` with its first ``count`` structural bits fixed at 1."""
    for name in build.structural[:count]:
        build.model.set_bounds(name, 1.0, 1.0)
    build.model.freeze()
    return build


@pytest.mark.parametrize("make", [
    lambda: quantized_dense_build(xor_data(), [2], bits=1, loss="abs"),
    lambda: quantized_dense_build(xor_data(), [2], bits=1, symmetry=False),
    lambda: _tightened(_dense_build(xor_data(), [1, 1]), 0.7),
    lambda: _tightened(_dense_build(xor_data(), [2, 1], per_unit_bounds=True,
                                    symmetry=False), 0.7),
    lambda: tiny_conv_build(bits=1, filters=1),
    # two filters over a 2x4 map pooled to 1x2, ordered by their |K| sums:
    # the head meets four cells
    lambda: tiny_conv_build(bits=1, shape=(1, 2, 5), kernel=(1, 2), symmetry=True),
    # three digits per parameter (13 bits): a pass of 128 leaves starts
    # inside the digits of the first layer's bias
    lambda: quantized_dense_build(_line_data(), [1], bits=3),
    # the switches and the first hidden row fixed (11 free bits): both
    # hidden layers and the head vary inside a pass
    lambda: _fixed(quantized_dense_build(_line_data(), [2, 2], freeze=False), 4),
], ids=["abs-loss", "no-symmetry", "collapsed-bounds", "per-unit-bounds", "conv",
        "conv-pooled-two-filters", "three-digit-parameters", "two-hidden-layers"])
def test_batched_values_match_complete_on_every_leaf(make):
    build = make()
    values = np.array(list(itertools.product(
        *(dom for _, dom in _structural_domains(build)))))
    got = [build.complete(dict(zip(build.structural, row)))
           for row in values.tolist()]
    # the whole listing in one batch, and in the passes of 128 leaves
    for passes in (1, len(values) // 128):
        obj, viol = map(np.concatenate, zip(*map(build.complete_batch,
                                                 np.split(values, passes))))
        assert np.allclose(obj, [o for o, _, _ in got], rtol=1e-12, atol=1e-12)
        assert np.allclose(viol, [v for _, v, _ in got], rtol=1e-12, atol=1e-12)
    assert 0 < np.count_nonzero(viol <= 1e-6) < len(viol)


@pytest.mark.parametrize("per_unit", [False, True])
def test_complete_matches_audit_under_binding_bounds(per_unit):
    """Bounds tightened before the build are the model's pre-activation
    variable bounds, so on every leaf the evaluator's verdict must be the
    audit's verdict on the assembled candidate."""
    data = xor_data()
    arch = DenseArch(2, [2], 1)
    hyper = Hyper(alpha=0.1, lam=0.9, beta=0.01, big_m=10.0, mode="train-quantized",
                  bits=1, w_max=1.0, quantize_biases=True, per_unit_bounds=per_unit)
    bt = propagate_bounds(arch, data.inputs.min(0), data.inputs.max(0), -1.0, 1.0)
    lb = bt.layer(0)
    factor = 0.7 ** np.arange(1, 3)          # unit 1's bounds tighter than unit 0's
    lb.unit_lo, lb.unit_hi = factor * lb.unit_lo, factor * lb.unit_hi
    build = build_dense(arch, data, hyper, bt)
    build.model.freeze()
    verdicts = set()
    for values in itertools.product([0.0, 1.0], repeat=len(build.structural)):
        bits = dict(zip(build.structural, values))
        obj, viol, _ = build.complete(bits)
        asg, _, _ = build.assemble(bits)
        report = build.model.evaluate_assignment(asg)
        assert (viol <= 1e-6) == report.ok, bits
        if report.ok:
            assert obj == pytest.approx(report.objective, abs=1e-9)
        verdicts.add(report.ok)
    assert verdicts == {False, True}


def test_batched_objective_matches_complete_on_xor_leaves():
    build = quantized_dense_build(xor_data(), [2], bits=2)
    rng = np.random.default_rng(2024)
    values = rng.integers(0, 2, size=(2000, len(build.structural))).astype(float)
    obj, viol = build.complete_batch(values)
    for row, o, v in zip(values, obj, viol):
        want_obj, want_viol, _ = build.complete(
            dict(zip(build.structural, map(float, row))))
        assert abs(o - want_obj) <= 1e-12 * max(1.0, abs(want_obj))
        assert abs(v - want_viol) <= 1e-12 * max(1.0, abs(want_viol))


def test_batched_values_match_complete_on_two_conv_layers():
    """A pooled conv layer feeding a strided one and a two-output head: the
    screen's patches, pooling and flattening across layers, on sampled
    leaves (42 bits are too many to list)."""
    rng = np.random.default_rng(3)
    arch = ConvArch(input_shape=(2, 5, 5),
                    conv_layers=(ConvLayer(filters=2, kernel=(2, 2), pool=((2, 2), 2)),
                                 ConvLayer(filters=2, kernel=(2, 1))),
                    head_dim=2)
    X = rng.uniform(0, 1, size=(3, 2, 5, 5))
    data = Dataset(inputs=X, targets=rng.uniform(-1, 1, size=(3, 2)))
    hyper = Hyper(alpha=0.1, lam=0.9, beta=0.01, big_m=20.0, mode="train-quantized",
                  bits=1, w_max=1.0, quantize_biases=True, symmetry=True)
    flat = X.reshape(3, -1)
    bt = propagate_bounds(arch, flat.min(0).reshape(2, 5, 5),
                          flat.max(0).reshape(2, 5, 5), -1.0, 1.0)
    build = build_cnn(arch, data, hyper, bt)
    build.model.freeze()
    values = rng.integers(0, 2, size=(500, len(build.structural))).astype(float)
    obj, viol = build.complete_batch(values)
    got = [build.complete(dict(zip(build.structural, row))) for row in values.tolist()]
    assert np.allclose(obj, [o for o, _, _ in got], rtol=1e-12, atol=1e-12)
    assert np.allclose(viol, [v for _, v, _ in got], rtol=1e-12, atol=1e-12)
    assert 0 < np.count_nonzero(viol <= 1e-6) < len(viol)


def test_bnb_decisions_on_the_criterion_6_instance_are_pinned():
    """The block screen only screens: nodes, candidates, the optimum and
    the winner's structural bits are those of the scalar decisions."""
    build = quantized_dense_build(xor_data(), [2], bits=2)
    res = branch_and_bound(build)
    assert (res.nodes, res.candidates) == (262656, 153600)
    assert res.objective == 0.5800000000000001
    winner = res.assignment.x[build.columns["bits"]]
    assert "".join("%d" % v for v in winner) == "1111100000011000011"


def test_counters_count_the_work_done():
    # 10 bits: gamma[0], then 9 digits scored as one block of 512 leaves
    build = quantized_dense_build(xor_data(), [2], bits=1)
    enum = enumerate_exact(build)
    assert enum.nodes == 1 + 2 * (1 + 512)
    bnb = branch_and_bound(build)
    assert bnb.nodes == 1 + 1 + 512          # gamma[0] = 0 is cut by a trigger
    feasible = len(list(iter_candidates(build)))
    assert enum.candidates == bnb.candidates == feasible
    # verify conv builds have no weight digits to block: every leaf is
    # scored alone
    conv = tiny_conv_build(mode="verify")
    res = enumerate_exact(conv)
    assert res.nodes == 2 ** (len(conv.structural) + 1) - 1
    assert res.candidates == len(list(iter_candidates(conv)))


def test_search_scores_quantized_conv_blocks():
    """13 bits: gamma[0][0], then 12 digits, the last 10 scored as blocks of
    1024 leaves; leaf by leaf the enumeration would enter 2^14 - 1 nodes."""
    build = tiny_conv_build(bits=1, filters=1)
    assert len(build.structural) == 13
    _assert_engines_match_listing(build)
    assert enumerate_exact(build).nodes == 1 + 2 + 4 + 8 * (1 + 1024) < 2 ** 14 - 1


def test_budget_stops_before_a_block_it_would_overrun():
    build = quantized_dense_build(xor_data(), [2], bits=1)
    full = branch_and_bound(build)
    cut = branch_and_bound(build, budget=full.nodes - 1)
    assert not cut.proven and cut.assignment is None
    assert cut.nodes == 2 <= full.nodes - 1
    exact = branch_and_bound(build, budget=full.nodes)
    assert exact.proven and exact.assignment.values == full.assignment.values


# -- sibling blocks scored in one pass ---------------------------------------
#
# On the criterion-6 instance (19 bits) the decision blocks are the last 10
# bits; the weight digits before them (structural[7] and [8], the digits of
# W[0][1][0]) vary between the sibling blocks of a pass.  The figures below
# were recorded with one screen call per decision block, before passes
# existed: scoring several blocks at once must not move any of them.

def _criterion_6(fix=None, inject=None):
    build = quantized_dense_build(xor_data(), [2], bits=2, freeze=False)
    if fix is not None:
        name = build.structural[fix[0]]
        build.model.set_bounds(name, fix[1], fix[1])
    if inject is not None:
        build.model.add_constraint([(1.0, build.model.var(inject[0]))], LE,
                                   inject[1], "injected")
    build.model.freeze()
    return build


def _outcome(build, res):
    winner = None if res.assignment is None else "".join(
        "%d" % v for v in res.assignment.x[build.columns["bits"]])
    return res.objective, res.proven, res.bound, res.nodes, res.candidates, winner


@pytest.mark.parametrize("make, budget, want", [
    # a fixing on a bit that varies between the blocks of one pass
    (lambda: _criterion_6(fix=(8, 1.0)), 10 ** 7,
     (0.8022222222222221, True, 0.8022222222222221, 131328, 53248,
      "1001101110001111110")),
    (lambda: _criterion_6(fix=(7, 1.0)), 10 ** 7,
     (0.8022222222222221, True, 0.8022222222222221, 131392, 65536,
      "1001101110001111110")),
    # a post-build row that moves the winner
    (lambda: _criterion_6(inject=("b[0][1]", -0.5)), 10 ** 7,
     (0.8241975308641976, True, 0.8241975308641976, 262656, 153600,
      "1111101111100010001")),
    # budgets that run out after the first and after the second block of
    # the first pass: the open bound is that of the blocks left undone
    (_criterion_6, 2058,
     (1.4511111111111115, False, 0.01, 1035, 256, "1000000000011011001")),
    (_criterion_6, 3084,
     (1.4511111111111115, False, 0.01, 2061, 256, "1000000000011011001")),
    (_criterion_6, 100000,
     (0.8022222222222221, False, 0.01, 99529, 40960, "1001101110001111110")),
], ids=["fix-sibling-8", "fix-sibling-7", "injected-row", "budget-after-block-1",
        "budget-after-block-2", "budget-mid-search"])
def test_pass_decisions_match_the_per_block_search(make, budget, want):
    build = make()
    assert _outcome(build, branch_and_bound(build, budget=budget)) == want


def test_search_memory_on_the_criterion_6_instance_stays_bounded():
    """The traced peak of the search: about 700 KB with one screen call per
    1,024-leaf block, and a pass may add at most 1.5 MB to it."""
    build = quantized_dense_build(xor_data(), [2], bits=2)
    tracemalloc.start()
    try:
        branch_and_bound(build)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (700 + 1536) * 1024
