"""Byte-level pins of builds the families of the per-sample network meet at
their edges: pool windows that leave cells uncovered, multi-channel strided
inputs, deep unequal dense stacks and five samples.  Each build pins its
program (as ``test_golden`` does) and the candidate ``assemble`` makes of a
fixed bit pattern, so a column offset or a selector that moves shows here."""

import hashlib

import pytest

from mipnn.nnspec import TRAIN_QUANTIZED, VERIFY, ConvLayer

from test_golden import _conv, _dense, _digest

GAPPED = ConvLayer(filters=2, kernel=(2, 2), pool=((2, 2), 3))
POOLED = ConvLayer(filters=2, kernel=(2, 2), pool=((2, 2), 2))
PLAIN = ConvLayer(filters=2, kernel=(2, 2))
STRIDED = ConvLayer(filters=2, kernel=(2, 2), stride=2)

BUILDS = {
    "conv-verify-pool-gaps": lambda: _conv(VERIFY, [GAPPED], shape=(1, 7, 7)),
    "conv-quantized-pool-gaps-abs": lambda: _conv(
        TRAIN_QUANTIZED, [GAPPED], shape=(1, 7, 7), loss="abs"),
    "conv-verify-multichannel-strided": lambda: _conv(
        VERIFY, [STRIDED, PLAIN], shape=(3, 6, 6), symmetry=True),
    "dense-quantized-three-unequal-abs-per-unit": lambda: _dense(
        TRAIN_QUANTIZED, hidden=(3, 2, 4), loss="abs", per_unit_bounds=True),
    "dense-verify-n5": lambda: _dense(VERIFY, hidden=(3, 2), n=5),
    "dense-quantized-n5": lambda: _dense(TRAIN_QUANTIZED, hidden=(2, 3), n=5),
    "conv-verify-pooled-n5": lambda: _conv(VERIFY, [POOLED], n=5),
    "conv-quantized-two-layers-n5": lambda: _conv(
        TRAIN_QUANTIZED, [PLAIN, POOLED], shape=(1, 6, 6), n=5, loss="abs"),
}


def _assembled(build):
    """The digest of the full candidate a fixed structural-bit pattern makes."""
    bits = {name: float((7 * k + 3) % 5 < 3)
            for k, name in enumerate(build.structural)}
    asg, obj, viol = build.assemble(bits)
    lines = ["%s %r" % (name, float(asg.values[name])) for name in build.model.names]
    lines.append("objective %r violation %r" % (obj, viol))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# recorded before the per-sample families were emitted as arrays
DIGESTS = {
    'conv-quantized-pool-gaps-abs': (
        '2e9a05641586bca6bfe38211b041ff2d8862f8c845107a4dfe47b7fff4b14aae',
        'f3e21e37d5b9725bd5ed935112184e207fddeaa4551f948a13a39bcf1f09306e'),
    'conv-quantized-two-layers-n5': (
        'e91032de916920941fae8badf1ed34d5903bb57056fc337a8466c50ee659667e',
        '5c4df37af5a859fe054f0ba3c47c3d26d8f01f20f1a3e8199587fe42810add78'),
    'conv-verify-multichannel-strided': (
        'bb8a5d933bb62b2e5d151cce7c0d992b9ec66e66d656cd38c45cede21d67a6ef',
        '4e59f90c028abcd2af4958982706a7f76cee55df4c51bb1cd96f88d505697822'),
    'conv-verify-pool-gaps': (
        'c360a4a37416c30cde536c040bbeac42df246896fae63058b3b5e17cb01018a4',
        '12b01b0c5648e33f152c89030c1585d3194f2ab5bae1329450e35d47343e3032'),
    'conv-verify-pooled-n5': (
        '0f29b54bf02d4793b541741a707394f423a22b19deac741b304a89ed0fcd8b0d',
        'd88010579a983f0454ee7cdddca279fa34779b27f1e402ace78d740dfb0a00c1'),
    'dense-quantized-n5': (
        '633cd6ff5a1ac7a04b72abf716dfa0dd043105f469f2a5fa0e4b1b2dee7eab7b',
        '864b4daf40c60f4db312a3b0c67de9fbca1cb873a60bc04d6b9ccff237560177'),
    'dense-quantized-three-unequal-abs-per-unit': (
        '20cee854ba858da4cd4fcb43d2322c6ef879855909ea2693f8dd5b2b808f5230',
        'e963da0c0a2bfea7d7f8bc42463f1b8c9887421e8f7417b023bb6d166aa5873e'),
    'dense-verify-n5': (
        'f26d100df8aeae5b68497bf97597d5064ae225f15f46007c7ee22faafb58d979',
        '934cabd2d6ee098fcfb040462457dfd443e7eafc9159d93e0a1791b85a4a85ec'),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_family_build_digest(name):
    build = BUILDS[name]()
    assert (_digest(build), _assembled(build)) == DIGESTS[name]
