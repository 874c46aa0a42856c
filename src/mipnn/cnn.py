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
                    name_template, net_quant, prune_rows, ref_columns, relu_layer)
from .nnspec import TRAIN_QUANTIZED, VERIFY, conv_map_shapes, patches, windows
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
        meets at each output position (``nnspec.patches``); the head meets
        the flattened map as it is."""
        if l == self.L:
            return a
        layer = self.arch.conv_layers[l]
        return patches(a, layer.kernel, layer.stride)

    def pooled(self, l, act):
        """Each pool window's maximum of ``act``, laid out (c, h, w, ...),
        where conv layer l pools."""
        pool = self.arch.conv_layers[l].pool
        if pool is None:
            return act
        hh, ww = windows(act.shape[1:3], *pool)
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
        hh, ww = windows(act.shape[2:], *self.arch.conv_layers[l].pool)
        cells = act[:, :, hh, ww]
        flat = cells.reshape(cells.shape[:4] + (-1,))
        zeta = np.zeros(act.shape)
        zeta[:, :, hh, ww] = (np.arange(flat.shape[-1])
                              == flat.argmax(axis=-1)[..., None]).reshape(cells.shape)
        return zeta


def pool_rows(build, block, l, a):
    """Selectors zeta and outputs p of conv layer l's pool over its
    post-ReLU map, whose columns are ``a``, per channel; returns p's."""
    c_l, oh, ow = build.map_shapes[l]
    hh, ww = windows((oh, ow), *build.arch.conv_layers[l].pool)
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
    params = declare_params(build)

    # parameter-side constraints: per row of each tensor, each weight's l1
    # and pruning rows, then the bias's pruning rows; symmetry on the kernels
    cols, M = build.columns, hyper.big_m
    convs = build.tensors[:-1]
    for t in build.tensors:
        rows = l1_rows(cols["u", t.l], cols["W", t.l])
        if t.gates:
            gates = cols["gamma", t.l]
            weights = prune_rows(cols["W", t.l], gates, M, "prune_weights")
            rows = Rows.join(Rows.join(rows, weights).fold(len(t.shape) - 1),
                             prune_rows(cols["b", t.l], gates, M, "prune_biases"))
        params.append(rows)
    if hyper.symmetry:
        for t in convs:
            u = cols["u", t.l].reshape(t.shape[0], -1)
            # per entry, channel c's term and then channel c + 1's
            pairs = np.stack([u[:-1], u[1:]], axis=-1).reshape(len(u) - 1, -1)
            params.append(Rows.of((len(pairs),), [pairs.shape[1]], [GE],
                                  ["symmetry_breaking"], [pairs],
                                  [[1.0, -1.0] * u.shape[1]], [[0.0]]))

    # per-sample network ----------------------------------------------------
    block = SampleBlock(build)
    input_rows(build, block)
    for t, layer in zip(convs, arch.conv_layers):
        a = relu_layer(build, block, t, block.families[build.map_source(t.l)])
        if layer.pool is not None:
            pool_rows(build, block, t.l, a)
    flat = flatten_rows(build, block, block.families[build.map_source(L)])
    head_rows(build, block, flat)
    block.finish(params)

    add_objective(build)
    return build
