"""Compile a convolutional spec: convolution unrolling, ReLU, max-pool
selection, channel-major flattening, channel pruning and symmetry breaking.

Naming (all 0-based):
  kernels        Wc[l][c][cp][u][v], biases bc[l][c], l in 0..L-1
  kernel l1 aux  u[l][c][cp][u][v]
  head           W[L][j][k], b[L][j], u[L][j][k]   (L = number of conv layers)
  activations    a[i][0][c][h][w] input; a[i][l+1][c][h][w] post-ReLU map
  pooled         p[i][l][c][h'][w']                (l = conv layer index)
  pool selectors zeta[i][l][c][h][w]               (pre-pool map coordinates,
                                                    so pool windows may not overlap)
  flattened      a[i][L][f]                        (channel-major f)
  head output    a[i][L+1][j]
  indicators     z/delta[i][l][c][h][w], gamma[l][c]
"""

import math

import numpy as np

from .ir import EQ, GE, LE, ModelIR
from .dense import (Build, BuildError, Field, Rows, SampleBlock, add_objective,
                    declare_params, emit_rows, head_rows, input_rows, l1_rows,
                    name_template, net_quant, prune_rows, ref_columns, relu_layer,
                    vn)
from .nnspec import TRAIN_QUANTIZED, VERIFY, conv_map_shapes
from .recon import ConvNet


def maxpool_rows(a, p, zeta, big_m):
    """Select-the-max encoding of each pooling window: the window's cells
    ``a`` and selectors ``zeta`` on the last axis, its output ``p``."""
    if not a.shape[-1]:
        raise BuildError("empty pooling window")
    a, zeta = np.broadcast_arrays(a, zeta)
    cells = a.shape[-1]
    p = np.broadcast_to(np.asarray(p)[..., None], a.shape)
    per_cell = np.stack([p, a, p, a, zeta], axis=-1).reshape(a.shape[:-1] + (-1,))
    return Rows.of(a.shape[:-1], [cells] + [2, 3] * cells, [EQ] + [GE, LE] * cells,
                   ["maxpool_select"] + ["maxpool_lb", "maxpool_ub"] * cells,
                   [zeta, per_cell],
                   [[1.0] * cells + [1.0, -1.0, 1.0, -1.0, big_m] * cells],
                   [[1.0] + [0.0, big_m] * cells])


def encode_maxpool(model, window_refs, p_ref, zeta_refs, big_m):
    """``maxpool_rows`` of one window."""
    emit_rows(model, maxpool_rows(ref_columns(model, *window_refs),
                                  ref_columns(model, p_ref)[0],
                                  ref_columns(model, *zeta_refs), big_m))


def _pool_windows(pool, hw):
    """Index arrays that take the (qh, qw, ph, pw) windows of a map of
    height and width ``hw`` from its last two axes."""
    (ph, pw), ps = pool
    qh = (hw[0] - ph) // ps + 1
    qw = (hw[1] - pw) // ps + 1
    return ((ps * np.arange(qh))[:, None, None, None] + np.arange(ph)[:, None],
            (ps * np.arange(qw))[:, None, None] + np.arange(pw))


class ConvBuild(Build):
    symmetry_on_abs = True

    def __init__(self, model, arch, data, hyper, btable, fixed_weights):
        super().__init__(model, arch, data, hyper, btable, fixed_weights,
                         conv_map_shapes(arch))

    def pool_big_m(self, l):
        if self.hyper.pool_global_m:
            return self.hyper.big_m
        return self.btable.layer(l).a_hi

    def map_source(self, l):
        """The family (base, index), variables base[i][index][c][h][w], of
        the map conv layer l reads; at l = L, the map the flatten reads."""
        if l > 0 and self.arch.conv_layers[l - 1].pool is not None:
            return "p", l - 1
        return "a", l

    # solution handling ----------------------------------------------------

    def net(self, params, gammas):
        layers = self.arch.conv_layers
        return ConvNet(kernels=params[:-1], head=params[-1], gamma=gammas,
                       pools=[layer.pool for layer in layers],
                       strides=[layer.stride for layer in layers],
                       quant=net_quant(self.hyper))

    # in the class's own namespace, where the benchmark's tracer wraps them
    complete = Build.complete
    assemble = Build.assemble

    def patches(self, l, a):
        """The cells of the map ``a`` that each kernel entry of conv layer l
        meets at each output position (``_patches``); the head meets the
        flattened map as it is."""
        if l == self.L:
            return a
        return _patches(a, self.arch.conv_layers[l], self.map_shapes[l][1:])

    def pooled(self, l, act):
        """Each pool window's maximum of ``act``, laid out (c, h, w, ...),
        where conv layer l pools."""
        pool = self.arch.conv_layers[l].pool
        if pool is None:
            return act
        hh, ww = _pool_windows(pool, act.shape[1:3])
        return act[:, hh, ww].max(axis=(3, 4))

    def assemble_maps(self, x, trace):
        """The pooled maps p and their selectors zeta, and the flattened map."""
        for l, layer in enumerate(self.arch.conv_layers):
            if layer.pool is not None:
                z, pooled = trace[l]
                x[self.columns["p", l]] = pooled
                x[self.columns["zeta", l]] = self._selectors(l, np.maximum(z, 0.0))
        x[self.columns["flat"]] = trace[-2][1].reshape(self.data.n, -1)

    def _selectors(self, l, act):
        """zeta of conv layer l: each pool window selects its first maximal
        cell of the post-ReLU map ``act``; cells no window covers stay 0."""
        hh, ww = _pool_windows(self.arch.conv_layers[l].pool, act.shape[2:])
        windows = act[:, :, hh, ww]
        flat = windows.reshape(windows.shape[:4] + (-1,))
        zeta = np.zeros(act.shape)
        zeta[:, :, hh, ww] = (np.arange(flat.shape[-1])
                              == flat.argmax(axis=-1)[..., None]).reshape(windows.shape)
        return zeta


def _patches(a, layer, out_hw):
    """patches[..., h, w, c, u, v] = a[..., c, h * stride + u, w * stride + v]:
    the input cell kernel entry (c, u, v) meets at output position (h, w)."""
    (kh, kw), s = layer.kernel, layer.stride
    oh, ow = out_hw
    rows = (s * np.arange(oh))[:, None, None, None, None] + np.arange(kh)[:, None]
    cols = (s * np.arange(ow))[:, None, None, None] + np.arange(kw)
    return a[..., np.arange(a.shape[-3])[:, None, None], rows, cols]


def pool_rows(build, block, l, a):
    """Selectors zeta and outputs p of conv layer l's pool over its
    post-ReLU map, whose columns are ``a``, per channel; returns p's."""
    c_l, oh, ow = build.map_shapes[l]
    pool = build.arch.conv_layers[l].pool
    hh, ww = _pool_windows(pool, (oh, ow))
    qh, qw = hh.shape[0], ww.shape[0]
    zeta, p = block.group(
        (c_l,),
        Field(("zeta", l), lambda c: [name_template("zeta", l, c, *cell)
                                      for cell in np.ndindex(oh, ow)],
              (oh, ow), 0.0, 1.0, True),
        Field(("p", l), lambda c: [name_template("p", l, c, *cell)
                                   for cell in np.ndindex(qh, qw)],
              (qh, qw), 0.0, max(0.0, build.btable.layer(l).a_hi)))
    cells = (c_l, qh, qw, -1)
    block.rows.append(maxpool_rows(a[:, hh, ww].reshape(cells), p,
                                   zeta[:, hh, ww].reshape(cells), build.pool_big_m(l)))
    return p


def flatten_rows(build, block, src):
    """a[i][L][f] = the cell f, channel-major, of the map whose columns are
    ``src``; returns their columns."""
    units = (src.size,)
    flat, = block.group(units, Field("flat", lambda f: [name_template("a", build.L, f)],
                                     (), 0.0, math.inf))
    block.rows.append(Rows.of(units, [2], [EQ], ["flatten"],
                              [flat[:, None], src.reshape(-1, 1)], [[1.0, -1.0]],
                              [[0.0]]))
    return flat


def build_cnn(arch, data, hyper, btable, weights=None):
    """Assemble the convolutional program in the requested mode.

    ``weights`` (verification mode) is a list of (kernel, bias) pairs per conv
    layer followed by the dense head (W, b).
    """
    if data.inputs.ndim != 4 or data.inputs.shape[1:] != arch.input_shape:
        raise BuildError("data shape %r does not match input shape %r"
                         % (data.inputs.shape, arch.input_shape))
    if data.targets.shape[1] != arch.head_dim:
        raise BuildError("target width mismatch")
    L = len(arch.conv_layers)
    if len(btable) < L:
        raise BuildError("bounds table covers %d layers, need %d" % (len(btable), L))
    if hyper.mode == VERIFY and weights is None:
        raise BuildError("verification mode needs fixed weights")
    if hyper.mode == TRAIN_QUANTIZED and not hyper.quantize_biases:
        raise BuildError("quantized conv mode requires quantized biases")
    for l, layer in enumerate(arch.conv_layers):
        # one selector per pre-pool cell: overlapping windows would share them
        if layer.pool is not None and layer.pool[1] < max(layer.pool[0]):
            raise BuildError("pool %r of conv layer %d overlaps: its stride must "
                             "be at least its window" % (layer.pool, l))

    model = ModelIR("cnn")
    build = ConvBuild(model, arch, data, hyper, btable, weights)
    M = hyper.big_m
    declare_params(build)

    # parameter-side constraints -------------------------------------------
    convs = build.tensors[:-1]
    for t in build.tensors:
        for row in range(t.shape[0]):
            g = model.var(t.gates[row]) if t.gates else None
            for idx in np.ndindex(t.shape[1:]):
                W = model.var(vn(t.w, t.l, row, *idx))
                l1_rows(model, model.var(vn("u", t.l, row, *idx)), W)
                if g is not None:
                    prune_rows(model, W, g, M, "prune_weights")
            if g is not None:
                prune_rows(model, model.var(vn(t.b, t.l, row)), g, M, "prune_biases")
    if hyper.symmetry:
        for t in convs:
            for c in range(t.shape[0] - 1):
                terms = []
                for idx in np.ndindex(t.shape[1:]):
                    terms.append((1.0, model.var(vn("u", t.l, c, *idx))))
                    terms.append((-1.0, model.var(vn("u", t.l, c + 1, *idx))))
                model.add_constraint(terms, GE, 0.0, "symmetry_breaking")

    # per-sample network ----------------------------------------------------
    block = SampleBlock(build)
    input_rows(build, block)
    for t, layer in zip(convs, arch.conv_layers):
        a = relu_layer(build, block, t, block.families[build.map_source(t.l)])
        if layer.pool is not None:
            pool_rows(build, block, t.l, a)
    flat = flatten_rows(build, block, block.families[build.map_source(L)])
    head_rows(build, block, flat)
    block.finish()

    add_objective(build)
    build.built_constraints = len(model.constraints)
    return build
