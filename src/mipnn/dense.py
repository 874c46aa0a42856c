"""Compile a dense network spec into its complete mixed-integer program, and
the per-tensor emitters the dense and convolutional builders share.

Layer index conventions (all 0-based, used verbatim in variable names):
  weight layers   l in 0..L      (0..L-1 hidden, L = linear head)
  hidden layers   h in 0..L-1    (z, delta, gamma)
  activations     a[i][0] input, a[i][h+1] hidden output, a[i][L+1] head output
  bias digits     d[l][j][n_in][t]  (bias treated as column n_in of layer l)
  products        y[i][l][j][k][t]  for weight layers l >= 1 in quantized mode
  residuals       r[i][j]           in absolute-loss mode

Three modes resolve the weight-times-activation products: ``verify`` fixes all
weights (the system is exactly linear), ``train-bilinear`` carries the raw
products for solvers that accept nonconvex quadratics, and ``train-quantized``
expands each weight into binary digits with exact product linearization,
yielding a true MILP.

Both builders describe their parameters as one ordered list of ``Tensor``s
(``param_tensors``): the dense layers, or the conv layers and then the head.
The declarations, the weight-times-input rows, the ReLU units, the head rows
and the objective are emitted from that list by the functions below.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import ir
from .ir import EQ, GE, LE, ModelIR
from .nnspec import (LOSS_ABS, TRAIN_BILINEAR, TRAIN_QUANTIZED, VERIFY,
                     DenseArch, validate_arch)
from .recon import (DenseNet, QuantSpec, forward_trace, objective_breakdown,
                    regularization)


class BuildError(Exception):
    pass


class IllPosedBoundsError(BuildError):
    pass


def vn(base, *idx):
    return base + "[%d]" * len(idx) % idx


def bit_vector(build, bits):
    """A structural-bit assignment as an array in ``build.structural`` order:
    ``bits`` is a sequence in that order, or maps each name to its value."""
    if isinstance(bits, Mapping):
        bits = [bits[name] for name in build.structural]
    values = np.array(bits, dtype=float)
    if values.shape != (len(build.structural),):
        raise BuildError("%d structural bits expected, got shape %r"
                         % (len(build.structural), values.shape))
    return values


def decode_layers(build, values, runs=None):
    """The (W, b) or (K, b) per layer that the B structural-bit vectors
    ``values``, of shape (B, len(structural)), determine, each with the batch
    axis last: the fixed weights in verification mode, else decoded through
    ``_bit_columns``.  Layer l is decoded on the rows ``values[::runs[l]]``
    (every row by default)."""
    runs = runs or [1] * len(build.tensors)
    if build.hyper.mode == VERIFY:
        return [tuple(np.broadcast_to(np.asarray(p, dtype=float)[..., None],
                                      np.shape(p) + (len(values[::r]),))
                      for p in pair) for pair, r in zip(build.fixed_weights, runs)]
    quant = QuantSpec(build.hyper.bits, build.hyper.w_max)
    layers = []
    for t, digits, r in zip(build.tensors, build._bit_columns[1], runs):
        flat = quant.decode(values[::r].T[digits])      # (parameter, B)
        size = math.prod(t.shape)
        layers.append((flat[:size].reshape(t.shape + flat.shape[1:]), flat[size:]))
    return layers


def _spread(op, coarse, fine):
    """``op`` of each of the S' states of ``coarse`` with the S/S' states of
    ``fine`` (S,) that it covers, in order."""
    return op(coarse[:, None], fine.reshape(len(coarse), -1)).ravel()


def _lead(x, k):
    """A view of ``x`` with its last ``k`` axes moved to the front."""
    return x.transpose(tuple(range(x.ndim - k, x.ndim)) + tuple(range(x.ndim - k)))


def net_quant(hyper):
    """The weight grid of a train-quantized net, else None."""
    return (QuantSpec(hyper.bits, hyper.w_max)
            if hyper.mode == TRAIN_QUANTIZED else None)


@dataclass(frozen=True)
class Tensor:
    """The parameters of weight layer ``l``: weights ``w[l][row][...]`` of
    ``shape`` (rows first) and biases ``b[l][row]``.  ``gates[row]`` names
    the pruning switch of each row (empty for the ungated head) and ``label``
    the rows that apply the layer.  Weight digits are ``d[l][row][...][t]``,
    keyed ``(l, row, ...)``; bias digits are keyed ``(l, row) + bias_col`` and
    named ``d`` with that key when ``bias_col`` is set (dense puts the bias
    at column n_in), else ``db[l][row][t]``."""
    w: str
    b: str
    l: int
    shape: tuple
    gates: tuple
    label: str
    bias_col: tuple


def param_tensors(arch):
    """The parameter tensors of ``arch`` in declaration order: the dense
    layers, or each conv layer's kernels and then the dense head."""
    if isinstance(arch, DenseArch):
        L, widths = arch.num_hidden, arch.widths
        return [Tensor("W", "b", l, (widths[l + 1], widths[l]),
                       (vn("gamma", l),) * widths[l + 1] if l < L else (),
                       "affine_map" if l < L else "output_map", (widths[l],))
                for l in range(L + 1)]
    shapes = validate_arch(arch)
    tensors = [Tensor("Wc", "bc", l,
                      (layer.filters, shapes[l][0]) + tuple(layer.kernel),
                      tuple(vn("gamma", l, c) for c in range(layer.filters)),
                      "conv_map", ())
               for l, layer in enumerate(arch.conv_layers)]
    c, h, w = shapes[-1]
    return tensors + [Tensor("W", "b", len(tensors), (arch.head_dim, c * h * w),
                             (), "output_map", ())]


# constraint families ----------------------------------------------------------
#
# The per-sample network repeats one structure for every sample: only its
# columns move, by one sample's size, and a few numbers come from the data.
# The builders lay it out once and emit each constraint family as arrays.
# A family's ``Rows`` repeat a pattern of rows over units.  ``cols``,
# ``coefs`` and ``rhs`` have the shape (samples,) + units + (entries,), where
# samples is 1 except for numbers taken from the data, and always 1 for
# ``cols``, which hold sample 0's columns.


def _stack(parts, units):
    """Concatenate on the last axis arrays that broadcast over (1,) + units."""
    parts = [np.asarray(p) for p in parts]
    lead = [1, *units]
    for p in parts:
        for k in range(2, p.ndim + 1):
            if p.shape[-k] != 1:
                lead[-k + 1] = p.shape[-k]
    out = np.empty(lead + [sum(p.shape[-1] for p in parts)],
                   dtype=np.result_type(*parts))
    k = 0
    for p in parts:
        out[..., k:k + p.shape[-1]] = p
        k += p.shape[-1]
    return out


class Rows:
    """The rows of a family: per unit, rows of ``lengths`` terms with
    ``senses`` and ``labels``, their terms on the last axis of ``cols`` and
    ``coefs`` and their right-hand sides on that of ``rhs``."""

    def __init__(self, lengths, senses, labels, cols, coefs, rhs):
        self.lengths, self.senses, self.labels = list(lengths), list(senses), list(labels)
        self.cols, self.coefs, self.rhs = cols, coefs, rhs

    @classmethod
    def of(cls, units, lengths, senses, labels, cols, coefs, rhs):
        """Rows over ``units`` from parts of their terms and rhs (``_stack``)."""
        return cls(lengths, senses, labels, _stack(cols, units),
                   _stack(coefs, units), _stack(rhs, units))

    def fold(self, axes=None):
        """These rows with their last ``axes`` unit axes (all by default)
        folded into the pattern, which repeats per folded unit in C order."""
        units = self.cols.shape[1:-1]
        keep = units[:len(units) - axes] if axes else ()
        k = math.prod(units[len(keep):])
        arrays = (x.reshape(x.shape[:1] + keep + (-1,))
                  for x in (self.cols, self.coefs, self.rhs))
        return Rows(self.lengths * k, self.senses * k, self.labels * k, *arrays)

    @classmethod
    def join(cls, *parts):
        """Per unit, the rows of each part in turn; None parts add nothing."""
        parts = [p for p in parts if p is not None]
        units = parts[0].cols.shape[1:-1]
        return cls(*(sum((getattr(p, a) for p in parts), [])
                     for a in ("lengths", "senses", "labels")),
                   *(_stack([getattr(p, a) for p in parts], units)
                     for a in ("cols", "coefs", "rhs")))


def emit_rows(model, rows, n=1, start=0, size=0, once=None):
    """Append the rows ``once`` and then ``rows`` once per sample i < n,
    the columns of ``rows`` from ``start`` on moved by ``i * size``, in one
    ``add_rows`` call.  Each part is written straight into the call's
    arrays."""
    parts = [(r.fold(), k) for r, k in ((once, 1), (rows, n)) if r is not None]
    labels = {label: k for k, label in enumerate(
        dict.fromkeys(label for r, _ in parts for label in r.labels))}
    count = sum(k * len(r.lengths) for r, k in parts)
    terms = sum(k * r.cols.shape[-1] for r, k in parts)
    indptr = np.zeros(count + 1, dtype=np.int64)
    cols, coefs = np.empty(terms, dtype=np.int64), np.empty(terms)
    sense, rhs = np.empty(count, dtype=np.int8), np.empty(count)
    label = np.empty(count, dtype=np.int64)
    row = term = 0
    for r, k in parts:
        width, per = r.cols.shape[-1], len(r.lengths)
        at = slice(term, term + k * width)
        part_cols = cols[at].reshape(k, width)
        np.multiply(np.arange(k)[:, None], np.where(r.cols[0] >= start, size, 0),
                    out=part_cols)
        part_cols += r.cols[0]
        coefs[at].reshape(k, width)[...] = r.coefs
        at = slice(row, row + k * per)
        for out, values in ((indptr[1:], r.lengths), (rhs, r.rhs),
                            (sense, list(map(ir.SENSES.index, r.senses))),
                            (label, list(map(labels.__getitem__, r.labels)))):
            out[at].reshape(k, per)[...] = values
        row, term = row + k * per, term + k * width
    model.add_rows(np.cumsum(indptr, out=indptr), cols, coefs, sense, rhs, label,
                   list(labels))


def relu_rows(z, a, delta, z_lo, z_hi):
    """The four-inequality exact ReLU encoding of the units with columns z,
    a and delta, each driven by its binary indicator; the bounds broadcast
    over the units."""
    units = np.shape(z)
    z_lo, z_hi = (np.broadcast_to(np.asarray(v, dtype=float), units)[..., None]
                  for v in (z_lo, z_hi))
    bad = np.flatnonzero(~((z_lo <= 0.0) & (0.0 <= z_hi)))
    if bad.size:
        raise IllPosedBoundsError("ReLU bounds must straddle 0, got [%r, %r]"
                                  % (float(z_lo.flat[bad[0]]),
                                     float(z_hi.flat[bad[0]])))
    z, a, delta = (np.asarray(c)[..., None] for c in (z, a, delta))
    return Rows.of(units, (1, 2, 3, 2), (GE, GE, LE, LE),
                   ("relu_lower", "relu_identity_lb", "relu_identity_ub",
                    "relu_activation_bound"),
                   [a, a, z, a, z, delta, a, delta],
                   [[1.0, 1.0, -1.0, 1.0, -1.0], -z_lo, [1.0], -z_hi],
                   [[0.0, 0.0], -z_lo, [0.0]])


def quant_rows(y, d, a, a_lo, a_hi):
    """The four rows that hold each product column y at digit d times the
    activation a in [a_lo, a_hi]; the three broadcast together."""
    y, d, a = (c[..., None] for c in np.broadcast_arrays(y, d, a))
    return Rows.of(y.shape[:-1], (2, 2, 3, 3), (LE, GE, LE, GE),
                   ("quant_product",) * 4,
                   [y, d, y, d, y, a, d, y, a, d],
                   [[1.0, -a_hi, 1.0, -a_lo, 1.0, -1.0, -a_lo, 1.0, -1.0, -a_hi]],
                   [[0.0, 0.0, -a_lo, -a_hi]])


def gate_rows(z, a, g, big_m):
    """a <= big_m * g and |z| <= big_m * g for the units with columns z and
    a and switches g."""
    z, a, g = (c[..., None] for c in np.broadcast_arrays(z, a, g))
    return Rows.of(z.shape[:-1], (2, 2, 2), (LE, LE, LE),
                   ("pruning_activation",) * 3, [a, g, z, g, z, g],
                   [[1.0, -big_m, 1.0, -big_m, -1.0, -big_m]], [[0.0, 0.0, 0.0]])


def l1_rows(u, w):
    """u >= |w| for the parameters with columns w and auxiliaries u."""
    u, w = (c[..., None] for c in np.broadcast_arrays(u, w))
    return Rows.of(u.shape[:-1], (2, 2), (GE, GE), ("l1_linearization",) * 2,
                   [u, w, u, w], [[1.0, -1.0, 1.0, 1.0]], [[0.0, 0.0]])


def prune_rows(ref, gate, big_m, label):
    """|ref| <= big_m * gate for the parameters with columns ref, the
    switches gate aligned with ref's leading axes (one per row)."""
    gate = np.reshape(gate, np.shape(gate) + (1,) * (np.ndim(ref) - np.ndim(gate)))
    ref, gate = (c[..., None] for c in np.broadcast_arrays(ref, gate))
    return Rows.of(ref.shape[:-1], (2, 2), (LE, LE), (label,) * 2,
                   [ref, gate, ref, gate], [[1.0, -big_m, -1.0, -big_m]], [[0.0, 0.0]])


def ref_columns(model, *refs):
    """The columns of ``refs``, which must be this model's variables."""
    model._check_refs(refs)
    return np.array([r.index for r in refs], dtype=np.int64)


def encode_relu(model, z, a, delta, z_lo, z_hi):
    """``relu_rows`` of one unit."""
    emit_rows(model, relu_rows(*ref_columns(model, z, a, delta), z_lo, z_hi))


def _check_bounded(a_lo, a_hi, what):
    if not np.isfinite(a_lo) or not np.isfinite(a_hi):
        raise BuildError("%s must be bounded for quantization" % what)


def encode_quantized_product(model, digits, a_ref, a_lo, a_hi, quant, y_namer):
    """Exact linearization of (quantized weight) * (bounded activation).

    Creates one product variable per digit, held at the digit-activation
    product by ``quant_rows``.  Returns the terms of the product expression.
    """
    _check_bounded(a_lo, a_hi, "activation %s" % a_ref.name)
    y = model.add_variables([y_namer(t) for t in range(len(digits))],
                            min(a_lo, 0.0), max(a_hi, 0.0), False)
    emit_rows(model, quant_rows(y, ref_columns(model, *digits),
                                ref_columns(model, a_ref), a_lo, a_hi))
    return ([(quant.step * (2 ** t), model.ref(c)) for t, c in enumerate(y.tolist())]
            + [(-quant.w_max, a_ref)])


def name_template(base, *idx):
    """``vn(base, i, *idx)`` with the sample index i left as ``%d``."""
    return (base + "[%%d]" + "[%d]" * len(idx)) % idx


class Field(NamedTuple):
    """The variables of each unit of a group, the family ``key`` of
    ``Build.columns``: ``names(*unit)`` lists their ``name_template``s,
    ``shape`` is their index shape, and ``lo``/``hi`` broadcast over
    (samples,) + units + shape."""
    key: object
    names: object
    shape: tuple
    lo: object
    hi: object
    binary: bool = False


class SampleBlock:
    """The per-sample network of a build: variables and rows laid out once,
    in sample 0's columns, and appended for every sample, each sample's
    columns ``size`` after the previous one's."""

    def __init__(self, build):
        self.build = build
        self.start = len(build.model.names)
        self.size = 0
        self.names = []          # per variable, its name_template
        self.lo, self.hi = [], []    # per group, bounds of shape (samples, vars)
        self.binary = []
        self.rows = []           # per section, its Rows, in row order
        self.bilinear = []       # (label, lin, quad) in sample 0's columns
        self.families = {}       # Field key -> sample 0's columns

    def group(self, units, *fields):
        """The variables of every unit of shape ``units`` in C order, per
        unit each field's in turn; returns each field's columns, shaped
        units + the field's shape."""
        count = math.prod(units)
        sizes = [math.prod(f.shape) for f in fields]
        first = (self.start + self.size
                 + sum(sizes) * np.arange(count, dtype=np.int64)[:, None])
        offsets = np.cumsum([0] + sizes).tolist()
        cols = [(first + off + np.arange(k)).reshape(units + f.shape)
                for f, k, off in zip(fields, sizes, offsets)]
        self.families.update(zip((f.key for f in fields), cols))
        self.size += count * sum(sizes)
        self.names += [name for u in np.ndindex(units)
                       for f in fields for name in f.names(*u)]

        def side(attr):
            out = np.empty((self.build.data.n, count, sum(sizes)))
            for f, k, off in zip(fields, sizes, offsets):
                v = getattr(f, attr)
                if np.ndim(v):
                    v = np.broadcast_to(v, np.broadcast_shapes(np.shape(v),
                                                               (1,) + units + f.shape))
                    v = v.reshape(len(v), count, k)
                out[:, :, off:off + k] = v
            return out.reshape(len(out), -1)

        self.lo.append(side("lo"))
        self.hi.append(side("hi"))
        self.binary.append(np.tile(np.repeat([f.binary for f in fields], sizes),
                                   count))
        return cols

    def finish(self, params):
        """Append every sample's variables to the model; then the parameter
        rows ``params`` (a list of ``Rows``) once, ahead of every sample's
        rows, and every sample's bilinear rows.  Record the row count in
        ``build.built_constraints`` and every family's columns in
        ``build.columns``, shaped (samples,) + units + the field's shape."""
        build, model = self.build, self.build.model
        n = build.data.n

        model.add_variables([name % i for i in range(n) for name in self.names],
                            np.concatenate(self.lo, axis=1).ravel(),
                            np.concatenate(self.hi, axis=1).ravel(),
                            np.tile(np.concatenate(self.binary), n))
        emit_rows(model, Rows.join(*(r.fold() for r in self.rows if r is not None)),
                  n, self.start, self.size, once=Rows.join(*(r.fold() for r in params)))
        # callers may still inject extra constraints or tighten bounds before
        # freezing; the watermark tells the solver which rows came later
        build.built_constraints = len(model.sense)

        def ref(c, i):
            c = int(c)
            return model.ref(c + i * self.size if c >= self.start else c)

        for i in range(n):
            for label, lin, quad in self.bilinear:
                model.add_bilinear_constraint(
                    [(c, ref(w, i), ref(x, i)) for c, w, x in quad],
                    [(c, ref(v, i)) for c, v in lin], EQ, 0.0, label)
        for key, cols in self.families.items():
            build.columns[key] = cols + self.size * np.arange(n).reshape(
                (n,) + (1,) * cols.ndim)
        # the z and delta column of every ReLU unit, in ``relu_pairs`` order
        build.relu_z, build.relu_delta = (
            np.concatenate([build.columns[base, l].reshape(n, -1)
                            for l in range(len(build.map_shapes))], axis=1).ravel()
            for base in ("z", "delta"))


def param_box(hyper):
    """The box |w|, |b| <= box of every trained weight and bias: ``w_max``
    in train-quantized mode, ``big_m`` otherwise.  The model's variable
    bounds and the interval bounds behind its big-M constants both use it."""
    return hyper.w_max if hyper.mode == TRAIN_QUANTIZED else hyper.big_m


# shared emitters --------------------------------------------------------------

def declare_params(build):
    """Every parameter variable, its columns kept in ``build.columns``: each
    row's weights ("W", l) then its bias ("b", l), per tensor; every l1
    auxiliary ("u", l); the pruning switches; in train-quantized mode each
    row's weight digits ("d", l), shaped the tensor's + (bits,), and then
    its bias digits.  The switches and digits are the structural bits
    ("bits").  Parameters are fixed in verification mode and boxed by
    ``param_box`` otherwise.  Returns, per tensor in train-quantized mode,
    the ``Rows`` that define each row's parameters from their digits."""
    model, hyper, cols = build.model, build.hyper, build.columns
    box = param_box(hyper)

    for t in build.tensors:
        rows, size = t.shape[0], math.prod(t.shape[1:])
        lo, hi = -box, box
        if hyper.mode == VERIFY:
            W, b = (np.asarray(p, dtype=float) for p in build.fixed_weights[t.l])
            lo = hi = np.column_stack([W.reshape(rows, size), b.reshape(rows)]).ravel()
        names = [name for row in range(t.shape[0])
                 for name in [vn(t.w, t.l, row, *idx) for idx in np.ndindex(t.shape[1:])]
                 + [vn(t.b, t.l, row)]]
        params = model.add_variables(names, lo, hi, False).reshape(rows, size + 1)
        cols["W", t.l] = params[:, :size].reshape(t.shape)
        cols["b", t.l] = params[:, size]
    for t in build.tensors:
        cols["u", t.l] = model.add_variables(
            [vn("u", t.l, *idx) for idx in np.ndindex(t.shape)], 0.0, math.inf, False
        ).reshape(t.shape)
    cols["bits"] = model.add_variables(build.gammas, 0.0, 1.0, True)
    build.structural += build.gammas
    gamma = dict(zip(build.gammas, cols["bits"]))
    for t in build.tensors:
        if t.gates:
            cols["gamma", t.l] = np.array([gamma[g] for g in dict.fromkeys(t.gates)])
    if hyper.mode != TRAIN_QUANTIZED:
        return []

    bits = hyper.bits
    quant = QuantSpec(bits, hyper.w_max)
    steps = [-quant.step * (2 ** s) for s in range(bits)]
    defs = []
    for t in build.tensors:
        rows, size = t.shape[0], math.prod(t.shape[1:])
        # per row, the digit key (less the row) and base of each parameter
        # and the label of the row defining it
        per_row = [(idx, "d", "quant_weight_def") for idx in np.ndindex(t.shape[1:])]
        if hyper.quantize_biases:
            per_row.append((t.bias_col, "d" if t.bias_col else "db", "quant_bias_def"))
        keys = [((t.l, row) + idx, base)
                for row in range(rows) for idx, base, _ in per_row]
        names = [vn(base, *key, s) for key, base in keys for s in range(bits)]
        digits = model.add_variables(names, 0.0, 1.0, True).reshape(rows, -1, bits)
        for k, (key, _) in enumerate(keys):
            build._digit_names[key] = tuple(names[k * bits:(k + 1) * bits])
        build.structural += names
        cols["bits"] = np.concatenate([cols["bits"], digits.ravel()])
        cols["d", t.l] = digits[:, :size].reshape(t.shape + (bits,))
        if hyper.quantize_biases:
            cols["db", t.l] = digits[:, size]
        params = np.column_stack([cols["W", t.l].reshape(rows, size), cols["b", t.l]])
        terms = np.concatenate([params[:, :len(per_row), None], digits], axis=-1)
        defs.append(Rows.of((rows,), [1 + bits] * len(per_row), [EQ] * len(per_row),
                            [label for _, _, label in per_row], [terms.reshape(rows, -1)],
                            [([1.0] + steps) * len(per_row)],
                            [[-quant.w_max] * len(per_row)]))
    return defs


def input_rows(build, block):
    """a[i][0][...] fixed at the inputs of every sample; returns the columns
    of the input map."""
    x = np.asarray(build.data.inputs, dtype=float)
    shape = x.shape[1:]
    cols, = block.group(shape, Field(("a", 0),
                                     lambda *idx: [name_template("a", 0, *idx)],
                                     (), x, x))
    block.rows.append(Rows.of(shape, [1], [EQ], ["input_assignment"],
                              [cols[..., None]], [[1.0]], [x[..., None]]))
    return cols


def _product_fields(build, t):
    """The products y[i][l][row][entry][pos][t] of each unit (row, *pos) of
    tensor ``t``: in train-quantized mode, past the first layer."""
    hyper = build.hyper
    if hyper.mode != TRAIN_QUANTIZED or t.l == 0:
        return []
    a_hi = build.btable.layer(t.l - 1).a_hi
    _check_bounded(0.0, a_hi, "the activations of layer %d" % t.l)
    entries = list(np.ndindex(t.shape[1:]))
    digits = range(hyper.bits)
    return [Field(("y", t.l),
                  lambda row, *pos: [name_template("y", t.l, row, *e, *pos, s)
                                     for e in entries for s in digits],
                  t.shape[1:] + (hyper.bits,), 0.0, max(a_hi, 0.0))]


def product_rows(build, block, t, out, src, y=None):
    """The rows ``out`` = bias + weight row times its inputs of every unit
    (row, *pos) of tensor ``t``, ``out`` holding the units' columns.

    ``src`` holds the columns of the map the tensor reads, which
    ``build.patches`` maps to the cell each weight entry meets at each
    position.  Fixed weights and a first layer, whose inputs
    are data, give a linear row; otherwise the products stay bilinear (on the
    block's list), or in train-quantized mode are linearized digit by digit
    into the products ``y``, shaped units + entry + (bits,), whose
    quant_product rows come before each unit's row.
    """
    hyper = build.hyper
    units = out.shape
    rows_at = units[:1] + (1,) * (len(units) - 1)
    weights = build.columns["W", t.l]
    lhs = ([out[..., None], build.columns["b", t.l].reshape(rows_at + (1,))],
           [[1.0, -1.0]])

    def row(cols, coefs):
        cols, coefs = lhs[0] + [cols], lhs[1] + [coefs]
        return Rows.of(units, [sum(np.shape(c)[-1] for c in cols)], [EQ], [t.label],
                       cols, coefs, [[0.0]])

    if hyper.mode != VERIFY and t.l == 0:
        x = build.patches(t.l, np.asarray(build.data.inputs, dtype=float))
        return row(weights.reshape(rows_at + (-1,)),
                   -x.reshape((len(x), 1) + x.shape[1:len(units)] + (-1,)))
    ins = build.patches(t.l, src)
    pos = ins.shape[:len(units) - 1]
    if hyper.mode == VERIFY:
        W = np.asarray(build.fixed_weights[t.l][0], dtype=float)
        return row(ins.reshape((1,) + pos + (-1,)), -W.reshape(rows_at + (-1,)))
    if hyper.mode == TRAIN_BILINEAR:
        b = build.columns["b", t.l]
        for u in np.ndindex(units):
            block.bilinear.append((t.label, [(1.0, out[u]), (-1.0, b[u[0]])],
                                   [(-1.0, w, a) for w, a in
                                    zip(weights[u[0]].ravel(), ins[u[1:]].ravel())]))
        return None
    quant = QuantSpec(hyper.bits, hyper.w_max)
    entries = t.shape[1:]
    a = ins.reshape((1,) + pos + entries + (1,))
    digits = build.columns["d", t.l].reshape(rows_at + entries + (hyper.bits,))
    products = quant_rows(y, digits, a,
                          0.0, build.btable.layer(t.l - 1).a_hi)
    terms = np.concatenate([y, np.broadcast_to(a, y.shape[:-1] + (1,))], axis=-1)
    coefs = np.append(-(quant.step * 2.0 ** np.arange(hyper.bits)), quant.w_max)
    return Rows.join(products.fold(len(entries) + 1),
                     row(terms.reshape(units + (-1,)),
                         np.tile(coefs, math.prod(entries))))


def relu_layer(build, block, t, src):
    """z, a and delta of every unit (row, *pos) of ReLU layer ``t.l`` over
    the map whose columns are ``src`` (see ``product_rows``), and per unit
    its product rows, the ReLU encoding and the rows that hold a and z at 0
    when the row's switch is off.  Returns the columns of a."""
    hyper = build.hyper
    l = t.l
    units = build.map_shapes[l]
    rows_at = units[:1] + (1,) * (len(units) - 1)
    z_lo, z_hi = build.preactivation_bounds(l)
    z, a, delta, *y = block.group(
        units,
        Field(("z", l), lambda *u: [name_template("z", l, *u)], (), z_lo, z_hi),
        Field(("a", l + 1), lambda *u: [name_template("a", l + 1, *u)], (), 0.0,
              np.where(np.greater(z_hi, 0.0), z_hi, 0.0)),
        Field(("delta", l), lambda *u: [name_template("delta", l, *u)], (),
              0.0, 1.0, True),
        *_product_fields(build, t))
    # one switch per dense layer, per conv channel
    gates = build.columns["gamma", l].reshape((-1,) + rows_at[1:])
    block.rows.append(Rows.join(product_rows(build, block, t, z, src, *y),
                                relu_rows(z, a, delta, z_lo, z_hi),
                                gate_rows(z, a, gates, hyper.big_m)))
    return a


def head_rows(build, block, src):
    """The head outputs a[i][L+1][j] over the vector whose columns are
    ``src``, and in absolute-loss mode the residuals
    r[i][j] >= |a[i][L+1][j] - target|."""
    t = build.tensors[-1]
    units = t.shape[:1]
    out, *y = block.group(
        units,
        Field(("a", t.l + 1), lambda j: [name_template("a", t.l + 1, j)], (),
              -math.inf, math.inf),
        *_product_fields(build, t))
    block.rows.append(product_rows(build, block, t, out, src, *y))
    if build.hyper.loss == LOSS_ABS:
        r, = block.group(units, Field("r", lambda j: [name_template("r", j)],
                                      (), 0.0, math.inf))
        target = np.asarray(build.data.targets, dtype=float)[..., None]
        r, out = r[:, None], out[:, None]
        block.rows.append(Rows.of(units, (2, 2), (GE, GE), ("abs_loss",) * 2,
                                  [r, out, r, out], [[1.0, -1.0, 1.0, 1.0]],
                                  [-target, target]))


def add_objective(build):
    """Loss + alpha * (lam * l1 + (1 - lam) / 2 * frobenius) + beta * switches."""
    model, hyper, cols, ref = build.model, build.hyper, build.columns, build.model.ref
    if hyper.loss == LOSS_ABS:
        for r in cols["r"].ravel().tolist():
            model.add_objective_linear(1.0, ref(r))
    else:
        targets = np.asarray(build.data.targets, dtype=float).ravel().tolist()
        for c, y in zip(cols["a", build.L + 1].ravel().tolist(), targets):
            out = ref(c)
            model.add_objective_quadratic(1.0, out, out)
            model.add_objective_linear(-2.0 * y, out)
            model.add_objective_constant(y * y)
    al, fr = regularization(hyper)
    for t in build.tensors:
        for u, w in zip(cols["u", t.l].ravel().tolist(), cols["W", t.l].ravel().tolist()):
            if al:
                model.add_objective_linear(al, ref(u))
            if fr:
                W = ref(w)
                model.add_objective_quadratic(fr, W, W)
    if hyper.beta:
        for g in cols["bits"][:len(build.gammas)].tolist():
            model.add_objective_linear(hyper.beta, ref(g))


class Build:
    """The compiled program plus everything needed to interpret its solutions.

    ``map_shapes[l]`` is the shape of ReLU layer l's units: (n_l,) dense,
    (C, H, W) pre-pool conv.  Subclasses define ``net(params, gammas)``, the
    recon net of (W, b) per tensor and the switches per gated tensor."""

    # the switches form a chain: the first held on, each at most the previous
    layer_chain = False
    # symmetry breaking orders rows by the sums of |W| rather than of W
    symmetry_on_abs = False

    def __init__(self, model, arch, data, hyper, btable, fixed_weights, map_shapes):
        self.model = model
        self.arch = arch
        self.data = data
        self.hyper = hyper
        self.btable = btable
        self.fixed_weights = fixed_weights    # [(W, b)] per tensor in verification mode
        self.map_shapes = map_shapes
        self.tensors = param_tensors(arch)
        self.gammas = list(dict.fromkeys(g for t in self.tensors for g in t.gates))
        self.structural = []          # binary names the oracle branches on
        self._digit_names = {}        # digit key (see Tensor) -> tuple of digit names
        # family key -> its variables' columns (see declare_params and Field)
        self.columns = {}
        self.built_constraints = 0

    @property
    def L(self):
        return len(self.tensors) - 1

    def relu_pairs(self):
        """(z, delta) names of every ReLU unit: per sample, per layer, per
        unit in C order."""
        names = self.model.names
        return [(names[z], names[d])
                for z, d in zip(self.relu_z.tolist(), self.relu_delta.tolist())]

    def preactivation_bounds(self, l):
        """(lo, hi) of ReLU layer l's pre-activations, shaped for its units:
        per row (unit or channel) with ``per_unit_bounds``, else the layer's
        collapsed interval as floats."""
        lb = self.btable.layer(l)
        if not self.hyper.per_unit_bounds:
            return lb.z_lo, lb.z_hi
        units = self.map_shapes[l]
        return tuple(np.asarray(v, dtype=float).reshape(units[:1] + (1,) * (len(units) - 1))
                     for v in (lb.unit_lo, lb.unit_hi))

    @cached_property
    def _bit_columns(self):
        """Indices in ``structural``: per gated tensor those of its switches;
        in a trained build, per tensor those of its weight and then bias
        digits, a row per parameter (None in verification mode); and per
        tensor the end of the prefix of columns that holds every switch and
        the digits of that tensor and of every earlier one."""
        at = partial(np.searchsorted, self.columns["bits"])
        gates = [at(self.columns["gamma", t.l]) for t in self.tensors if t.gates]
        digits = None
        if self.hyper.mode != VERIFY:
            if ("db", 0) not in self.columns:
                raise BuildError("free parameters: bits do not determine the net")
            digits = [at(np.concatenate([self.columns[key, t.l].reshape(-1, self.hyper.bits)
                                         for key in ("d", "db")]))
                      for t in self.tensors]
        last, ends = max((int(c.max()) for c in gates), default=-1), []
        for d in digits or [()] * len(self.tensors):
            last = int(np.max(d, initial=last))
            ends.append(last + 1)
        return gates, digits, ends

    def patches(self, l, a):
        """The cells of the map ``a``, on its trailing axes, that the weight
        entries of layer l meet at each of its positions, on trailing axes
        pos + entry: dense layers have no positions and meet ``a`` as it is."""
        return a

    def extract_net(self, x):
        """The net that the variable vector ``x`` of a full assignment holds."""
        cols = self.columns
        params = [(x[cols["W", t.l]], x[cols["b", t.l]]) for t in self.tensors]
        gammas = [(x[cols["gamma", t.l]] >= 0.5).astype(float)
                  for t in self.tensors if t.gates]
        return self.net(params, gammas)

    def evaluate(self, values):
        """Parameters, ``recon.forward_trace``, objective and violation of the
        B candidates ``values``, a (B, len(structural)) array of structural
        bits; every array has a leading axis of B.

        The net decodes as ``reconstruct`` would return it and is scored by
        ``recon.objective_breakdown``; ``violation`` checks its trace.
        """
        h = self.hyper
        gates = [values.T[cols] for cols in self._bit_columns[0]]
        params = decode_layers(self, values)
        first = [(_lead(W, 1), b.T) for W, b in params]
        net = self.net(first, [g.T for g in gates])
        trace = forward_trace(net, self.data.inputs)
        obj = objective_breakdown(net, trace[-1][0], self.data.targets, h)["total"]
        # each z (B, n, rows, *pos) as (rows, n, *pos, B)
        viol = self.violation(gates, zip(self.tensors, params, [
            np.moveaxis(z, (2, 0), (0, -1)) for z, _ in trace[:-1]]))
        return first, trace, obj, viol

    def violation(self, gates, layers):
        """The worst amount, a (B,) array, by which each of B candidates
        breaks a constraint family that forward propagation does not satisfy
        by construction: the switch chain, each gated row's gates on its
        weights, bias and pre-activations, symmetry breaking and the
        pre-activation bounds.  A feasible candidate has violation <= tol.

        ``gates`` holds every gated tensor's switches and ``layers`` the
        (tensor, (W, b), z) of the hidden tensors to check.  Every array has
        the batch axis last: the gates (units, B), the parameters W (rows,
        *entry, B) and b (rows, B), and the pre-activations z (rows, ..., B).
        The checks are max-reductions over the leading axes, which give the
        same floats in any layout."""
        h = self.hyper
        B = gates[0].shape[-1]
        checks = []
        if self.layer_chain:
            gamma = np.concatenate(gates, dtype=float)
            checks += [np.abs(gamma[:1] - 1.0), gamma[1:] - gamma[:-1]]
        # gates broadcast over rows: one switch per dense layer, per conv channel
        for t, (W, b), z in layers:
            rows = W.reshape(W.shape[:1] + (-1, B))
            size = np.abs(rows)
            # each row's extreme pre-activations over samples and positions
            zr = z.reshape(z.shape[:1] + (-1, B))
            z_lo, z_hi = zr.min(axis=1), zr.max(axis=1)
            lo, hi = (np.reshape(v, (-1, 1)) for v in self.preactivation_bounds(t.l))
            # x - gate rounds monotonically in x, so the largest gated
            # quantity less the gate is the largest of their excesses
            reach = np.maximum(np.maximum(size.max(axis=1), np.abs(b)),
                               np.maximum(-z_lo, z_hi))
            checks += [reach - h.big_m * gates[t.l], lo - z_lo, z_hi - hi]
            if h.symmetry:
                sums = (size if self.symmetry_on_abs else rows).sum(axis=1)
                checks.append(sums[1:] - sums[:-1])
        return np.concatenate([c.reshape(-1, B) for c in checks]).max(axis=0, initial=0.0)

    def complete_batch(self, values):
        """Objective and violation, two (B,) arrays, of the B candidates
        ``values``: the exact search's screen, in an arithmetic of its own.

        Layer l is decoded, regularized and checked once per run of
        ``_runs(values)[l]`` consecutive rows that agree on its parameters,
        every earlier layer's and the switches; its map reaches the next
        layer's states as a broadcast view (``_screen_layer``), and only the
        head and the loss are computed per row.  The state axis stays
        innermost throughout.  The sums round in another order than
        ``evaluate``'s, so the numbers may differ from it in the last bits;
        the search only screens on them (``oracle.SCREEN_MARGIN``), and
        ``complete`` decides."""
        h = self.hyper
        al, fr = regularization(h)
        runs = self._runs(values)
        obj = viol = np.zeros(1)
        a = _lead(self.data.inputs, self.data.inputs.ndim - 1)[..., None]   # (*map, n, 1)
        for t, (W, b), r in zip(self.tensors, decode_layers(self, values, runs), runs):
            if t.l == self.L:
                # the head meets the last map flattened, channel-major
                a = a.reshape((-1,) + a.shape[-2:])
            z = self._screen_layer(t, W, b, a)
            part = (al * np.abs(W) + fr * W * W).reshape(-1, W.shape[-1]).sum(axis=0)
            if t.gates:
                gates = [values[::r].T[cols] for cols in self._bit_columns[0]]
                part += h.beta * gates[t.l].sum(axis=0)
                viol = _spread(np.maximum, viol, self.violation(gates, [(t, (W, b), z)]))
                a = self.pooled(t.l, np.maximum(z, 0.0))
            obj = _spread(np.add, obj, part)
        res = z - self.data.targets.T[..., None]
        obj = obj + (np.abs(res) if h.loss == LOSS_ABS else res * res).sum(axis=(0, 1))
        return (np.repeat(obj, len(values) // len(obj)),
                np.repeat(viol, len(values) // len(viol)))

    def _runs(self, values):
        """Per tensor, the length of the runs of consecutive rows of
        ``values`` that agree on the prefix of columns up to its
        ``_bit_columns`` end: the greatest common divisor of B and of the
        rows that start a new prefix, so it divides each earlier tensor's."""
        change = values.T[:, 1:] != values.T[:, :-1]
        runs = []
        for end in self._bit_columns[2]:
            cuts = change[:end].any(axis=0)
            runs.append(1 if cuts.all() else int(
                np.gcd.reduce(np.flatnonzero(cuts) + 1, initial=len(values))))
        return runs

    def _screen_layer(self, t, W, b, a):
        """The pre-activations (rows, *pos, n, S) of layer ``t`` with batched
        parameters W (rows, *entry, S) and b (rows, S) over the map ``a``
        (*map, n, S'), accumulated one weight entry at a time.  S' divides
        S: map state s is spread, as a broadcast view, over the parameter
        states S/S' * s to S/S' * (s + 1) - 1."""
        cells = self.patches(t.l, _lead(a, 2))            # (n, S', *pos, *entry)
        npos = cells.ndim - len(t.shape) - 1
        cells = cells.reshape(cells.shape[:2 + npos] + (-1,))
        cells = np.ascontiguousarray(
            cells.transpose((npos + 2,) + tuple(range(2, npos + 2)) + (0, 1)))[..., None]
        split = (1,) * (npos + 1) + (a.shape[-1], -1)
        W = W.reshape(W.shape[:1] + (len(cells),) + split)
        z = W[:, 0] * cells[0]
        for k in range(1, len(cells)):
            z += W[:, k] * cells[k]
        z += b.reshape(b.shape[:1] + split)
        return z.reshape(z.shape[:-2] + (-1,))

    def pooled(self, l, act):
        """The map that ReLU layer l passes on, given its post-ReLU map
        ``act`` laid out (units, *pos, ...); a dense layer passes it as it
        is."""
        return act

    def candidate(self, bits):
        """(objective, violation, params, trace) of one structural-bit
        assignment: ``evaluate`` on a batch of one, without the batch axis."""
        params, trace, obj, viol = self.evaluate(bit_vector(self, bits)[None])
        return (float(obj[0]), float(viol[0]), [(W[0], b[0]) for W, b in params],
                [(z[0], a[0]) for z, a in trace])

    def complete(self, bits, tol=1e-6):
        """Objective, violation and ``recon.forward_trace`` of the net a
        structural-bit assignment determines (see ``evaluate``)."""
        obj, viol, _, trace = self.candidate(bits)
        return obj, viol, trace

    def assemble(self, bits, tol=1e-6):
        """The full Assignment of a structural-bit candidate, with its
        objective and violation: the bits, the parameters (with u = |W|)
        and every sample's network as ``candidate`` evaluates it, each
        family written through its columns.  The vector starts as NaN, so
        a column left unwritten fails the audit."""
        obj, viol, params, trace = self.candidate(bits)
        cols = self.columns
        x = np.full(len(self.model.names), np.nan)
        x[cols["bits"]] = bit_vector(self, bits)
        for t, (W, b) in zip(self.tensors, params):
            x[cols["W", t.l]] = W
            x[cols["u", t.l]] = np.abs(W)
            x[cols["b", t.l]] = b
        x[cols["a", 0]] = self.data.inputs
        for l, (z, _) in enumerate(trace[:-1]):
            x[cols["z", l]] = z
            x[cols["a", l + 1]] = np.maximum(z, 0.0)
            x[cols["delta", l]] = z > 0
        self.assemble_maps(x, trace)
        out = trace[-1][0]
        x[cols["a", self.L + 1]] = out
        if self.hyper.loss == LOSS_ABS:
            x[cols["r"]] = np.abs(out - self.data.targets)
        if self.hyper.mode == TRAIN_QUANTIZED:
            # y of each layer past the first: the input each weight digit
            # multiplies where the digit is set, else 0.  The head reads
            # the last map flattened.
            maps = [a for _, a in trace[:-1]]
            maps[-1] = maps[-1].reshape(self.data.n, -1)
            for t in self.tensors[1:]:
                inputs = self.patches(t.l, maps[t.l - 1])   # (n, *pos, *entry)
                npos = inputs.ndim - len(t.shape)
                on = x[cols["d", t.l]].reshape(t.shape[:1] + (1,) * npos + t.shape[1:] + (-1,))
                x[cols["y", t.l]] = np.where(on >= 0.5, inputs[:, None, ..., None], 0.0)
        return ir.Assignment(self.model, x), obj, viol

    def assemble_maps(self, x, trace):
        """Write the families a subclass adds between the layers of the
        network; a dense network has none."""


class DenseBuild(Build):
    layer_chain = True

    def __init__(self, model, arch, data, hyper, btable, fixed_weights):
        super().__init__(model, arch, data, hyper, btable, fixed_weights,
                         [(n,) for n in arch.hidden_widths])

    # solution handling ----------------------------------------------------

    def net(self, params, gammas):
        return DenseNet(weights=params, gamma=np.concatenate(gammas, axis=-1),
                        quant=net_quant(self.hyper))

    # in the class's own namespace, where the benchmark's tracer wraps them
    complete = Build.complete
    assemble = Build.assemble


def build_dense(arch, data, hyper, btable, weights=None):
    """Assemble the full dense program in the requested mode."""
    if data.inputs.ndim != 2 or data.inputs.shape[1] != arch.input_dim:
        raise BuildError("data shape %r does not match input dim %d"
                         % (data.inputs.shape, arch.input_dim))
    if data.targets.shape[1] != arch.output_dim:
        raise BuildError("target width %d does not match output dim %d"
                         % (data.targets.shape[1], arch.output_dim))
    if len(btable) < arch.num_hidden:
        raise BuildError("bounds table covers %d layers, need %d"
                         % (len(btable), arch.num_hidden))
    if hyper.mode == VERIFY and weights is None:
        raise BuildError("verification mode needs fixed weights")
    if hyper.mode != VERIFY and weights is not None:
        raise BuildError("fixed weights only make sense in verification mode")

    model = ModelIR("dense")
    build = DenseBuild(model, arch, data, hyper, btable, weights)
    params = declare_params(build)

    # parameter-side constraints: every tensor's l1 rows, then per hidden
    # row its weights' and bias's pruning rows, the switch chain, symmetry
    cols, M = build.columns, hyper.big_m
    hidden = build.tensors[:-1]
    params += [l1_rows(cols["u", t.l], cols["W", t.l]) for t in build.tensors]
    params += [Rows.join(prune_rows(cols["W", t.l], cols["gamma", t.l], M,
                                    "prune_weights").fold(1),
                         prune_rows(cols["b", t.l], cols["gamma", t.l], M, "prune_biases"))
               for t in hidden]
    gammas = cols["bits"][:len(build.gammas), None]
    params += [Rows.of((len(gammas) - 1,), [2], [LE], ["layer_ordering"],
                       [gammas[1:], gammas[:-1]], [[1.0, -1.0]], [[0.0]]),
               Rows.of((1,), [1], [EQ], ["root_layer_active"], [gammas[:1]], [[1.0]],
                       [[1.0]])]
    if hyper.symmetry:
        for t in hidden:
            W, n_in = cols["W", t.l], t.shape[1]
            params.append(Rows.of((len(W) - 1,), [2 * n_in], [GE], ["symmetry_breaking"],
                                  [W[:-1], W[1:]], [[1.0] * n_in + [-1.0] * n_in],
                                  [[0.0]]))

    # per-sample network ----------------------------------------------------
    block = SampleBlock(build)
    a = input_rows(build, block)
    for t in hidden:
        a = relu_layer(build, block, t, a)
    head_rows(build, block, a)
    block.finish(params)

    add_objective(build)
    return build
