"""Architecture and dataset declarations: ingestion, preprocessing, dimension inference."""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

VERIFY = "verify"
TRAIN_BILINEAR = "train-bilinear"
TRAIN_QUANTIZED = "train-quantized"
MODES = (VERIFY, TRAIN_BILINEAR, TRAIN_QUANTIZED)

LOSS_SQUARED = "squared"
LOSS_ABS = "abs"


class SpecError(Exception):
    pass


class ParseError(SpecError):
    pass


@dataclass(frozen=True)
class DenseArch:
    input_dim: int
    hidden_widths: tuple       # n_1 .. n_L, at least one layer
    output_dim: int

    def __post_init__(self):
        if len(self.hidden_widths) < 1:
            raise SpecError("at least one hidden layer required")
        if self.input_dim < 1 or self.output_dim < 1 or min(self.hidden_widths) < 1:
            raise SpecError("all layer widths must be >= 1")

    @property
    def num_hidden(self):
        return len(self.hidden_widths)

    @property
    def widths(self):
        """(n_0, n_1, ..., n_{L+1})"""
        return (self.input_dim,) + tuple(self.hidden_widths) + (self.output_dim,)


@dataclass(frozen=True)
class ConvLayer:
    filters: int
    kernel: tuple              # (K_H, K_W)
    stride: int = 1
    # a max-pool stage appended after this layer's ReLU, or None
    pool: tuple = None         # ((P_H, P_W), stride)

    def __post_init__(self):
        sizes = (self.filters, *self.kernel, self.stride)
        if self.pool is not None:
            sizes += (*self.pool[0], self.pool[1])
        if min(sizes) < 1:
            raise SpecError("conv layer sizes must be >= 1")


@dataclass(frozen=True)
class ConvArch:
    input_shape: tuple         # (C_0, H_0, W_0)
    conv_layers: tuple         # ConvLayer, at least one
    head_dim: int              # n_{L+1}

    def __post_init__(self):
        if len(self.conv_layers) < 1:
            raise SpecError("at least one conv layer required")
        if self.head_dim < 1:
            raise SpecError("head width must be >= 1")


@dataclass
class Hyper:
    alpha: float = 0.1
    lam: float = 0.9
    beta: float = 0.01
    big_m: float = 10.0
    mode: str = VERIFY
    loss: str = LOSS_SQUARED
    bits: int = 2
    w_max: float = 1.0
    quantize_biases: bool = True
    symmetry: bool = True
    per_unit_bounds: bool = False
    pool_global_m: bool = False   # use the global box bound instead of a_hi in pooling

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise SpecError("lambda must lie in [0, 1]")
        # each test is false for NaN; the messages name the config keys
        for key, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 <= value < math.inf:
                raise SpecError("%s must be a finite number at least 0, not %r"
                                % (key, value))
        for key, value in (("bigM", self.big_m), ("wmax", self.w_max)):
            if not 0.0 < value < math.inf:
                raise SpecError("%s must be a finite number above 0, not %r"
                                % (key, value))
        if self.bits < 1:
            raise SpecError("quantization needs at least 1 bit")
        if self.mode not in MODES:
            raise SpecError("unknown mode %r" % self.mode)
        if self.loss not in (LOSS_SQUARED, LOSS_ABS):
            raise SpecError("unknown loss %r" % self.loss)


@dataclass
class Dataset:
    inputs: np.ndarray         # (n, n_0) or (n, C, H, W)
    targets: np.ndarray        # (n, n_out); raw labels arrive as (n, 1)
    feature_mean: np.ndarray = None
    feature_std: np.ndarray = None
    zero_variance: list = field(default_factory=list)

    @property
    def n(self):
        return self.inputs.shape[0]


def load_dataset(path, label_column="label"):
    """Read a CSV with a header row into a numeric feature matrix plus labels."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("%s: empty file" % path)
        if label_column not in header:
            raise ParseError("%s: no column named %r" % (path, label_column))
        label_idx = header.index(label_column)
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError("%s:%d: %d fields, the header has %d"
                                 % (path, lineno, len(row), len(header)))
            try:
                vals = [float(x) for x in row]
            except ValueError as e:
                raise ParseError("%s:%d: non-numeric value (%s)" % (path, lineno, e))
            if not all(map(math.isfinite, vals)):
                raise ParseError("%s:%d: value that is not finite" % (path, lineno))
            labels.append(vals.pop(label_idx))
            feats.append(vals)
    if not feats:
        raise ParseError("%s: no data rows" % path)
    inputs = np.asarray(feats, dtype=float)
    targets = np.asarray(labels, dtype=float).reshape(-1, 1)
    return Dataset(inputs=inputs, targets=targets)


def preprocess(data, standardize=False, one_hot=False):
    """Standardize features to zero mean / unit variance and one-hot the labels.

    Uses the population standard deviation; zero-variance features pass through
    unscaled and are recorded.  The transform parameters are kept on the
    returned Dataset so inference-time inputs can be mapped the same way.
    """
    inputs = data.inputs
    mean = np.zeros(inputs.shape[1:])
    std = np.ones(inputs.shape[1:])
    zero_var = []
    if standardize:
        flat = inputs.reshape(inputs.shape[0], -1)
        mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        dead = std == 0.0
        zero_var = list(np.flatnonzero(dead))
        scale = np.where(dead, 1.0, std)
        shift = np.where(dead, 0.0, mean)
        flat = (flat - shift) / scale
        inputs = flat.reshape(inputs.shape)
        mean = shift.reshape(inputs.shape[1:])
        std = scale.reshape(inputs.shape[1:])

    targets = data.targets
    if one_hot:
        labels = targets.reshape(-1)
        classes = sorted(set(labels.tolist()))
        k = len(classes)
        lut = {c: j for j, c in enumerate(classes)}
        targets = np.zeros((len(labels), k))
        for i, c in enumerate(labels):
            targets[i, lut[c]] = 1.0

    return Dataset(inputs=inputs, targets=targets,
                   feature_mean=mean, feature_std=std,
                   zero_variance=zero_var)


def _positions(hw, window, stride):
    """The positions, per axis, at which a ``window`` (height, width) moved
    by ``stride`` fits inside a map of height and width ``hw``."""
    return tuple((n - k) // stride + 1 for n, k in zip(hw, window))


def windows(hw, window, stride):
    """Index arrays that take the (qh, qw, ph, pw) windows of a map of
    height and width ``hw`` from its last two axes: cell (u, v) of the
    window at (h, w) is map cell (h * stride + u, w * stride + v)."""
    (ph, pw), (qh, qw) = window, _positions(hw, window, stride)
    return ((stride * np.arange(qh))[:, None, None, None] + np.arange(ph)[:, None],
            (stride * np.arange(qw))[:, None, None] + np.arange(pw))


def patches(a, kernel, stride):
    """patches[..., h, w, c, u, v] = a[..., c, h * stride + u, w * stride + v]:
    the cell of the map ``a`` (channels, height and width on its last three
    axes) that kernel entry (c, u, v) meets at output position (h, w)."""
    hh, ww = windows(a.shape[-2:], kernel, stride)
    return a[..., np.arange(a.shape[-3])[:, None, None], hh[:, :, None], ww[:, :, None]]


def _conv_shapes(shape, layer):
    """The pre-pool map shape and the output shape (post-pool where a pool
    stage exists) of one conv layer over a map of ``shape`` (C, H, W)."""
    hw = _positions(shape[1:], layer.kernel, layer.stride)
    if min(hw) < 1:
        raise SpecError("kernel %r does not fit input %r" % (layer.kernel, tuple(shape[1:])))
    out = hw
    if layer.pool is not None:
        out = _positions(hw, *layer.pool)
        if min(out) < 1:
            raise SpecError("pool %r does not fit map %r" % (layer.pool, hw))
    return (layer.filters,) + hw, (layer.filters,) + out


def conv_output_shape(shape, layer):
    """Feature-map shape after one conv layer (and its pool stage, if any)."""
    return _conv_shapes(shape, layer)[1]


def validate_arch(arch):
    """Infer per-layer dimensions; raises SpecError when a kernel does not fit.

    Dense: returns the tuple of layer widths.  Conv: returns the list of
    (C, H, W) shapes after each layer (post-pool where a pool stage exists),
    starting with the input shape.
    """
    if isinstance(arch, DenseArch):
        return arch.widths
    shapes = [arch.input_shape]
    for layer in arch.conv_layers:
        shapes.append(conv_output_shape(shapes[-1], layer))
    return shapes


def conv_map_shapes(arch):
    """Pre-pool feature-map shapes (C_l, H_l, W_l) per conv layer."""
    return [t.units for t in param_tensors(arch)[:-1]]


def vn(base, *idx):
    return base + "[%d]" * len(idx) % idx


@dataclass(frozen=True)
class Tensor:
    """The parameters of weight layer ``l``: weights ``w[l][row][...]`` of
    ``shape`` (rows first) and biases ``b[l][row]``.  ``gates[row]`` names
    the pruning switch of each row (empty for the ungated head) and ``label``
    the rows that apply the layer.  Weight digits are ``d[l][row][...][t]``,
    keyed ``(l, row, ...)``; bias digits are keyed ``(l, row) + bias_col`` and
    named ``d`` with that key when ``bias_col`` is set (dense puts the bias
    at column n_in), else ``db[l][row][t]``.

    ``units`` is the shape of the layer's map before its pool: (rows,) for a
    2-d weight, which meets its input whole, and (C, H, W) for a conv
    kernel, which meets it at each position ``stride`` apart (``patches``).
    ``pool`` is the max-pool stage ((P_H, P_W), stride) after its ReLU, or
    None."""
    w: str
    b: str
    l: int
    shape: tuple
    gates: tuple
    label: str
    bias_col: tuple
    units: tuple
    stride: int = 1
    pool: tuple = None

    def patches(self, a):
        """The cells of the map ``a``, on its trailing axes, that the weight
        entries meet at each position, on trailing axes pos + entry: a 2-d
        weight has no positions and meets ``a`` as it is."""
        if len(self.shape) == 2:
            return a
        return patches(a, self.shape[-2:], self.stride)


def param_tensors(arch):
    """The parameter tensors of ``arch`` in declaration order: the dense
    layers, or each conv layer's kernels and then the dense head."""
    if isinstance(arch, DenseArch):
        L, widths = arch.num_hidden, arch.widths
        return [Tensor("W", "b", l, (widths[l + 1], widths[l]),
                       (vn("gamma", l),) * widths[l + 1] if l < L else (),
                       "affine_map" if l < L else "output_map", (widths[l],),
                       (widths[l + 1],))
                for l in range(L + 1)]
    if not isinstance(arch, ConvArch):
        raise TypeError("unknown architecture %r" % (arch,))
    tensors, shape = [], arch.input_shape
    for l, layer in enumerate(arch.conv_layers):
        units, out = _conv_shapes(shape, layer)
        tensors.append(Tensor("Wc", "bc", l, (layer.filters, shape[0]) + tuple(layer.kernel),
                              tuple(vn("gamma", l, c) for c in range(layer.filters)),
                              "conv_map", (), units, layer.stride, layer.pool))
        shape = out
    return tensors + [Tensor("W", "b", len(tensors), (arch.head_dim, math.prod(shape)),
                             (), "output_map", (), (arch.head_dim,))]


def maxpool2d(a, window, stride):
    """Each ``window`` moved by ``stride``'s maximum of the map ``a``, on
    its last two axes."""
    hh, ww = windows(a.shape[-2:], window, stride)
    return a[..., hh, ww].max(axis=(-2, -1))


def split_indices(path):
    """Read a train/test split file: one 0-based sample index per line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise ParseError("%s:%d: not an index" % (path, lineno))
    return out


def take(data, indices):
    return replace(data, inputs=data.inputs[indices], targets=data.targets[indices])
