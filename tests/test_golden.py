"""Byte-level pins of small builds: the LP and MPS text of each program (the
IR itself where the model carries bilinear rows), its structural-bit order
and, for dense builds, the digit-name table.  Any change in a builder's
variables, rows, their order, names, bounds or the objective changes a
digest here."""

import hashlib

import numpy as np
import pytest

from mipnn.bounds import propagate_bounds
from mipnn.cnn import build_cnn
from mipnn.dense import build_dense
from mipnn.emit import lp_text, mps_text
from mipnn.nnspec import (TRAIN_BILINEAR, TRAIN_QUANTIZED, VERIFY, ConvArch,
                          ConvLayer, Dataset, DenseArch, Hyper,
                          validate_arch)


def _ir_text(model):
    """Every variable, row, bilinear row and objective term, in order."""
    out = ["%s %s %r %r" % (v.name, v.kind, v.lo, v.hi) for v in model.variables]
    for con in model.constraints:
        out.append("%s %s %r %s" % (con.label, con.sense, con.rhs,
                                    " ".join("%r*%s" % (c, r.name) for c, r in con.terms)))
    for quad, lin, sense, rhs, label in model.bilinear_constraints:
        out.append("%s %s %r %s | %s" % (
            label, sense, rhs, " ".join("%r*%s" % (c, r.name) for c, r in lin),
            " ".join("%r*%s*%s" % (c, r1.name, r2.name) for c, r1, r2 in quad)))
    obj = model.objective
    out.append("obj %r" % obj.constant)
    out += ["%r*%s" % (c, r.name) for c, r in obj.linear]
    out += ["%r*%s*%s" % (c, r1.name, r2.name) for c, r1, r2 in obj.quadratic]
    return "\n".join(out) + "\n"


def _digest(build):
    model = build.model.freeze()
    parts = ["\n".join(build.structural)]
    if model.bilinear_constraints:
        parts.append(_ir_text(model))
    else:
        parts += [lp_text(model), mps_text(model)]
    if isinstance(build.arch, DenseArch):
        parts.append(repr(sorted(build._digit_names.items())))
    return hashlib.sha256("\n\f\n".join(parts).encode()).hexdigest()


def _dense(mode, hidden=(3,), n=3, **kw):
    rng = np.random.default_rng(7)
    widths = (2,) + tuple(hidden) + (2,)
    arch = DenseArch(2, list(hidden), 2)
    X = rng.uniform(-1, 1, size=(n, 2))
    data = Dataset(inputs=X, targets=rng.uniform(-1, 1, size=(n, 2)))
    hyper = Hyper(mode=mode, bits=2, w_max=1.0, big_m=10.0, **kw)
    weights = None
    if mode == VERIFY:
        weights = [(rng.uniform(-1, 1, size=(widths[l + 1], widths[l])),
                    rng.uniform(-1, 1, size=widths[l + 1]))
                   for l in range(len(widths) - 1)]
        bt = propagate_bounds(arch, X.min(0), X.max(0), 0.0, 0.0,
                              fixed_weights=weights)
    else:
        bt = propagate_bounds(arch, X.min(0), X.max(0), -1.0, 1.0)
    return build_dense(arch, data, hyper, bt, weights=weights)


def _conv(mode, layers, shape=(1, 5, 5), n=2, **kw):
    rng = np.random.default_rng(11)
    arch = ConvArch(input_shape=shape, conv_layers=tuple(layers), head_dim=2)
    X = rng.uniform(0, 1, size=(n,) + shape)
    data = Dataset(inputs=X, targets=rng.uniform(-1, 1, size=(n, 2)))
    hyper = Hyper(mode=mode, bits=1, w_max=1.0, big_m=10.0, **kw)
    flat = X.reshape(n, -1)
    lo, hi = flat.min(0).reshape(shape), flat.max(0).reshape(shape)
    weights = None
    if mode == VERIFY:
        weights = []
        c_in = shape[0]
        for layer in layers:
            weights.append((rng.uniform(-1, 1, size=(layer.filters, c_in) + layer.kernel),
                            rng.uniform(-1, 1, size=layer.filters)))
            c_in = layer.filters
        c, h, w = validate_arch(arch)[-1]
        weights.append((rng.uniform(-1, 1, size=(2, c * h * w)),
                        rng.uniform(-1, 1, size=2)))
        bt = propagate_bounds(arch, lo, hi, 0.0, 0.0, fixed_weights=weights)
    else:
        bt = propagate_bounds(arch, lo, hi, -1.0, 1.0)
    return build_cnn(arch, data, hyper, bt, weights=weights)


POOLED = ConvLayer(filters=2, kernel=(2, 2), pool=((2, 2), 2))
PLAIN = ConvLayer(filters=2, kernel=(2, 2))
STRIDED = ConvLayer(filters=2, kernel=(2, 2), stride=2)

BUILDS = {
    "dense-verify": lambda: _dense(VERIFY, symmetry=True),
    "dense-verify-per-unit-lam0": lambda: _dense(
        VERIFY, hidden=(3, 2), per_unit_bounds=True, lam=0.0, symmetry=False),
    "dense-bilinear-abs-lam1-beta0": lambda: _dense(
        TRAIN_BILINEAR, hidden=(2, 2), loss="abs", lam=1.0, beta=0.0),
    "dense-quantized": lambda: _dense(TRAIN_QUANTIZED, hidden=(2, 2), symmetry=True),
    "dense-quantized-abs-unquantized-biases": lambda: _dense(
        TRAIN_QUANTIZED, loss="abs", quantize_biases=False, symmetry=False),
    "dense-quantized-per-unit-lam0": lambda: _dense(
        TRAIN_QUANTIZED, hidden=(2,), per_unit_bounds=True, lam=0.0),
    "conv-verify-pooled": lambda: _conv(VERIFY, [POOLED], symmetry=True),
    "conv-verify-strided-per-unit": lambda: _conv(
        VERIFY, [STRIDED], per_unit_bounds=True, symmetry=False),
    "conv-bilinear-two-layers-global-m": lambda: _conv(
        TRAIN_BILINEAR, [POOLED, PLAIN], shape=(1, 6, 6), pool_global_m=True,
        loss="abs"),
    "conv-quantized-pooled-abs": lambda: _conv(
        TRAIN_QUANTIZED, [POOLED], loss="abs", symmetry=True),
    "conv-quantized-two-layers-lam0": lambda: _conv(
        TRAIN_QUANTIZED, [STRIDED, PLAIN], shape=(1, 6, 6), lam=0.0,
        symmetry=False, per_unit_bounds=True),
    "conv-quantized-pooled-second": lambda: _conv(
        TRAIN_QUANTIZED, [PLAIN, POOLED], shape=(2, 5, 5), symmetry=True,
        pool_global_m=True),
}

# recorded before the builders were merged into one per-tensor emitter set
DIGESTS = {
    'conv-bilinear-two-layers-global-m':
        'c829818e6ef8111ed02431a28a42200501bb2a520185cce46e44f0148f7abee9',
    'conv-quantized-pooled-abs':
        '863aeddd58053a060c67d732c23767bf89ad59a25a278a837064109a2dc36c90',
    'conv-quantized-pooled-second':
        '3a07c23c75fe849bf417645ec33541f78696d459fd3227e372bcb301c6a5bd4d',
    'conv-quantized-two-layers-lam0':
        'e901f3cb943ca8089ee95a287b2ede855fcb6459777d108b145df5bd858278cd',
    'conv-verify-pooled':
        'a12e9c67844f6f03780b8b2f74d3e16ac3d8d1b6c141a5ab9c00e1b753891513',
    'conv-verify-strided-per-unit':
        '566ec0819485717b136d076555b5e46441be674f1dfa604cf81a0ae45cd4710c',
    'dense-bilinear-abs-lam1-beta0':
        '317838135356409af1d1ba928d34503f6b1e231cd06eb4eb45333214a1d687f3',
    'dense-quantized':
        '7bed1068547e7530571f58393325088a2f7c5e0c2f0af7e548675f9016ac94c2',
    'dense-quantized-abs-unquantized-biases':
        'ebabb72571d5290ff8a681026b43db58d66511d5c220651be1c7381cb05c8308',
    'dense-quantized-per-unit-lam0':
        '4c85d740bca29dc09ad6f076cbe2f33157403fb6ba5b0aab270d889563eabd12',
    'dense-verify':
        '30d49f6a4b7c809b8521377ac99ed62938ef604b5f1b41ab16b056453d031669',
    'dense-verify-per-unit-lam0':
        '6ef24c4303eccf1bcb3836f9ac6e6a420345489833b1c2bb6921ac599d2c2072',
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_digest(name):
    assert _digest(BUILDS[name]()) == DIGESTS[name]
