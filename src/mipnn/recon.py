"""Network reconstruction, independent forward inference, auditing and metrics.

The forward pass here is plain numpy arithmetic with no dependency on the
model IR, so it can serve as an oracle for the encodings.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .ir import Violation, round_binaries
from .nnspec import LOSS_ABS, patches, windows

SPARSITY_TOL = 1e-6


class ReconError(Exception):
    pass


@dataclass
class QuantSpec:
    bits: int
    w_max: float

    @property
    def step(self):
        return 2.0 * self.w_max / (2 ** self.bits - 1)

    def decode(self, digits):
        """Map digit columns (LSB first) onto the fixed-point weight grid:
        ``digits`` holds them on its axis before the last, as ``np.matmul``
        contracts it, or is one digit vector.  The digits' weighted sum is an
        exact integer in any order, so every layout decodes to the same
        floats; a block of digits laid out (parameter, digit, B) decodes to
        (parameter, B), batch-innermost."""
        return self.step * (2.0 ** np.arange(self.bits) @ np.asarray(digits)) - self.w_max

    def grid(self):
        codes = np.arange(2 ** self.bits)[:, None] >> np.arange(self.bits) & 1
        return self.decode(codes.T).tolist()


@dataclass
class DenseNet:
    weights: list                # [(W, b)] for layers 1..L+1
    gamma: np.ndarray            # retained flag per hidden layer
    quant: QuantSpec = None

    @property
    def num_hidden(self):
        return len(self.weights) - 1


@dataclass
class ConvNet:
    kernels: list                # [(K, b)] per conv layer; K is (C, C', KH, KW)
    head: tuple                  # (W, b) of the dense head
    gamma: list                  # per conv layer, retained flag per channel
    pools: list                  # per conv layer, ((PH, PW), stride) or None
    strides: list = None         # conv stride per layer (default 1)
    quant: QuantSpec = None


def forward(net, x):
    """Plain forward pass; returns the raw head outputs for a batch."""
    return forward_trace(net, x)[-1][1]


def forward_trace(net, x):
    """Per-layer (z, a) pairs; for conv nets ``a`` is the post-pool map.  A
    net whose parameters carry a leading candidate axis gives arrays with
    that axis first."""
    x = np.asarray(x, dtype=float)
    if isinstance(net, DenseNet):
        return _forward_dense(net, x)
    return _forward_conv(net, x)


def forward_preactivations(net, x):
    """Hidden-layer pre-activation arrays, one per ReLU layer."""
    return [z for z, _ in forward_trace(net, x)[:-1]]


def _affine(a, W, b):
    return a @ W.swapaxes(-1, -2) + np.asarray(b)[..., None, :]


def _forward_dense(net, x):
    trace = []
    a = x
    for l, (W, b) in enumerate(net.weights):
        z = _affine(a, W, b)
        if l < net.num_hidden:
            a = np.maximum(z, 0.0)
            trace.append((z, a))
        else:
            trace.append((z, z))
    return trace


def _conv2d(a, K, b, stride):
    cells = patches(a, K.shape[-2:], stride)           # (..., n, oh, ow, c, u, v)
    oh, ow = cells.shape[-5:-3]
    # rows (..., oh * ow, n, entries), contiguous, times the kernels: one
    # BLAS call per position, the same whether or not a candidate axis
    # leads; a single (n * oh * ow, entries) product would round otherwise
    rows = np.ascontiguousarray(np.moveaxis(
        cells.reshape(cells.shape[:-5] + (oh * ow, -1)), -2, -3))
    kernels = K.reshape(K.shape[:-3] + (-1,)).swapaxes(-1, -2)
    z = np.moveaxis(rows @ kernels[..., None, :, :], -3, -1)
    return z.reshape(z.shape[:-1] + (oh, ow)) + np.asarray(b)[..., None, :, None, None]


def maxpool2d(a, window, stride):
    hh, ww = windows(a.shape[-2:], window, stride)
    return a[..., hh, ww].max(axis=(-2, -1))


def _forward_conv(net, x):
    trace = []
    strides = net.strides or [1] * len(net.kernels)
    a = x
    for l, (K, b) in enumerate(net.kernels):
        z = _conv2d(a, K, b, strides[l])
        a = np.maximum(z, 0.0)
        if net.pools[l] is not None:
            window, ps = net.pools[l]
            a = maxpool2d(a, window, ps)
        trace.append((z, a))
    flat = a.reshape(a.shape[:-3] + (-1,))          # channel-major flattening
    out = _affine(flat, *net.head)
    trace.append((out, out))
    return trace


def flatten_index(c, h, w, H, W):
    """Channel-major linear index of a feature-map cell."""
    if not (0 <= h < H and 0 <= w < W) or c < 0:
        raise ReconError("index (%d,%d,%d) out of range for %dx%d maps" % (c, h, w, H, W))
    return c * H * W + h * W + w


def audit(build, asg, tol=1e-6, report=None):
    """Evaluate an assignment against the build's model, with a ReLU sanity check.

    ``report`` is the model's ``evaluate_assignment`` of ``asg`` when the
    caller has one; without one the assignment is evaluated here.  Beyond the
    raw constraint audit, the ReLU indicators are compared against the sign
    of the pre-activations; indicators at z = 0 may take either value.
    """
    if report is None:
        report = build.model.evaluate_assignment(asg, tol)
    else:
        report = replace(report, violations=list(report.violations))
    x = build.model._own(asg)
    z, d = x[build.relu_z], x[build.relu_delta]
    with np.errstate(invalid="ignore"):
        wrong = ~(np.abs(z) <= tol) & (np.abs(d - (z > 0)) > tol)
    for k in np.flatnonzero(wrong).tolist():
        report.violations.append(Violation(
            "relu_indicator:" + build.model.names[build.relu_delta[k]], -1,
            abs(float(z[k]))))
    return report


def reconstruct(build, asg, tol=1e-6, report=None):
    """Rebuild the network encoded by a solution that passes its audit.
    ``report`` is the caller's ``audit`` of ``asg``; without one the
    assignment is audited here.  A failed audit is refused."""
    if report is None:
        report = audit(build, asg, tol)
    if not report.ok:
        raise ReconError(
            "audit failed: %d violations, worst %g (%s)"
            % (len(report.violations) + len(report.integrality_violations),
               report.max_violation,
               report.violations[0].label if report.violations else "integrality"))
    return build.extract_net(round_binaries(build.model, asg.x, tol))


def canonicalize(net):
    """Sort each hidden layer's rows by descending row sum, permuting the next
    layer's columns to preserve the computed function."""
    if not isinstance(net, DenseNet):
        raise ReconError("canonicalization applies to dense nets")
    weights = [(W.copy(), b.copy()) for W, b in net.weights]
    for l in range(net.num_hidden):
        W, b = weights[l]
        order = sorted(range(W.shape[0]), key=lambda j: -W[j].sum())
        weights[l] = (W[order], b[order])
        Wn, bn = weights[l + 1]
        weights[l + 1] = (Wn[:, order], bn)
    return DenseNet(weights=weights, gamma=net.gamma.copy(), quant=net.quant)


@dataclass
class MetricsReport:
    accuracy: float                    # percent
    layer_sparsity: list               # percent per layer, None for pruned layers
    retained: list                     # gamma flags (dense: per layer; conv: per channel list)
    neuron_counts: list = None         # nonzero-row counts per hidden layer
    gap: float = None                  # solver-reported optimality gap, percent
    objective_breakdown: dict = field(default_factory=dict)

    def render_dense_row(self, dataset=""):
        retained = "[" + ", ".join(str(int(g)) for g in self.retained) + "]"
        spars = "[" + ", ".join(
            "-" if s is None else _fmt1(s) for s in self.layer_sparsity) + "]"
        cells = [retained, spars, _fmt1(self.accuracy),
                 "-" if self.gap is None else _fmt1(self.gap)]
        if dataset:
            cells.insert(0, dataset)
        return " / ".join(cells)

    def render_dense_table(self, dataset=""):
        head = "Dataset & Hidden Layers & Sparsity (%) & Test Accuracy (%) & MIP Gap (%)"
        return head + "\n" + self.render_dense_row(dataset or "-").replace(" / ", " & ")

    def render_cnn_row(self):
        """Compact conv summary: accuracy / retained filters / first and last
        layer weight sparsity / gap, slash separated."""
        total = len(self.retained)
        kept = sum(int(g) for g in self.retained)
        cells = [_fmt1(self.accuracy), "%d of %d" % (kept, total),
                 _fmt1(self.layer_sparsity[0]), _fmt1(self.layer_sparsity[-1]),
                 "-" if self.gap is None else _fmt1(self.gap)]
        return " / ".join(cells)

    def render_cnn_block(self, conv_sparsity=None, dense_sparsity=None,
                         hidden_neurons=None):
        total = len(self.retained)
        kept = sum(int(g) for g in self.retained)
        if conv_sparsity is None:
            conv_sparsity = self.layer_sparsity[0]
        if dense_sparsity is None:
            dense_sparsity = self.layer_sparsity[-1]
        lines = [
            ("Test Accuracy", _fmt1(self.accuracy) + "%"),
            ("Retained Filters", "%d of %d" % (kept, total)),
        ]
        if hidden_neurons is not None:
            lines.append(("Hidden Neurons (Dense)", str(hidden_neurons)))
        lines += [
            ("CNN Weight Sparsity", _fmt1(conv_sparsity) + "%"),
            ("Dense Weight Sparsity", _fmt1(dense_sparsity) + "%"),
        ]
        if self.gap is not None:
            lines.append(("Final MIP Gap", _fmt1(self.gap) + "%"))
        width = max(len(k) for k, _ in lines)
        return "\n".join("%-*s  %s" % (width, k, v) for k, v in lines)

    def to_kv_lines(self):
        out = ["accuracy %r" % self.accuracy]
        for i, s in enumerate(self.layer_sparsity):
            out.append("sparsity[%d] %s" % (i, "-" if s is None else repr(s)))
        out.append("retained %s" % " ".join(str(int(g)) for g in np.ravel(self.retained)))
        if self.neuron_counts is not None:
            out.append("neurons %s" % " ".join(str(c) for c in self.neuron_counts))
        if self.gap is not None:
            out.append("gap %r" % self.gap)
        for k, v in self.objective_breakdown.items():
            out.append("objective.%s %r" % (k, v))
        return "\n".join(out) + "\n"


def _fmt1(x):
    return "%.1f" % float(x)


def regularization(hyper):
    """The coefficients of the objective's l1 and frobenius parts:
    alpha * lam and alpha * (1 - lam) / 2."""
    return hyper.alpha * hyper.lam, 0.5 * hyper.alpha * (1.0 - hyper.lam)


def objective_breakdown(net, outputs, targets, hyper):
    """The training objective of a net with head ``outputs`` on ``targets``:
    its loss, l1, frobenius and structural parts, and their ``total``.  A
    net and ``outputs`` with a leading candidate axis give each part as an
    array over the candidates."""
    if isinstance(net, DenseNet):
        params, gammas = net.weights, [net.gamma]
    else:
        params, gammas = net.kernels + [net.head], net.gamma
    lead = np.ndim(outputs) - np.ndim(targets)

    def summed(x):
        return x.sum(axis=tuple(range(lead, x.ndim))) if lead else float(x.sum())

    al, fr = regularization(hyper)
    res = outputs - targets
    parts = {
        "loss": summed(np.abs(res) if hyper.loss == LOSS_ABS else res ** 2),
        "l1": al * sum(summed(np.abs(W)) for W, _ in params),
        "frobenius": fr * sum(summed(W ** 2) for W, _ in params),
        "structural": hyper.beta * summed(np.concatenate(
            [np.asarray(g, dtype=float) for g in gammas], axis=-1)),
    }
    # the dict order is the summation order, which the pinned optima rely on
    parts["total"] = sum(parts.values())
    return parts


def metrics(net, data, split=None, reported_gap=None, hyper=None):
    """Accuracy, per-layer weight sparsity, retained structure and objective parts."""
    inputs, targets = data.inputs, data.targets
    if split is not None:
        if len(split) and (min(split) < 0 or max(split) >= data.n):
            raise ReconError("split indices out of range")
        inputs, targets = inputs[split], targets[split]
    out = forward(net, inputs)
    pred = np.argmax(out, axis=1)
    truth = np.argmax(targets, axis=1)
    accuracy = 100.0 * float(np.mean(pred == truth)) if len(pred) else 0.0

    if isinstance(net, DenseNet):
        param_layers = net.weights[:-1]
        retained = [int(round(g)) for g in np.ravel(net.gamma)]
    else:
        param_layers = [(K.reshape(K.shape[0], -1), b) for K, b in net.kernels]
        retained = [int(round(g)) for g in np.ravel(np.concatenate(net.gamma))]

    sparsity = []
    neuron_counts = []
    for l, (W, _) in enumerate(param_layers):
        pruned = isinstance(net, DenseNet) and l < len(net.gamma) and net.gamma[l] < 0.5
        if pruned:
            sparsity.append(None)
            neuron_counts.append(0)
            continue
        frac = 100.0 * float(np.mean(np.abs(W) <= SPARSITY_TOL))
        sparsity.append(frac)
        neuron_counts.append(int(np.sum(np.abs(W).max(axis=1) > SPARSITY_TOL)))

    breakdown = ({} if hyper is None
                 else objective_breakdown(net, out, targets, hyper))

    return MetricsReport(accuracy=accuracy, layer_sparsity=sparsity,
                         retained=retained, neuron_counts=neuron_counts,
                         gap=reported_gap, objective_breakdown=breakdown)
