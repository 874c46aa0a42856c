import numpy as np
import pytest

from mipnn.bounds import propagate_bounds
from mipnn.emit import count_forecast
from mipnn.nnspec import (ConvArch, ConvLayer, Dataset, DenseArch, Hyper,
                          ParseError, SpecError, conv_map_shapes,
                          conv_output_shape, load_dataset, param_tensors,
                          preprocess, split_indices, take, validate_arch)


def test_dense_arch_widths():
    arch = DenseArch(4, [3, 2], 5)
    assert arch.widths == (4, 3, 2, 5)
    assert arch.num_hidden == 2


def test_dense_arch_validation():
    with pytest.raises(SpecError):
        DenseArch(0, [2], 1)
    with pytest.raises(SpecError):
        DenseArch(2, [], 1)


def test_hyper_validation():
    with pytest.raises(SpecError):
        Hyper(lam=1.5)
    with pytest.raises(SpecError):
        Hyper(alpha=-0.1)
    with pytest.raises(SpecError):
        Hyper(big_m=0.0)
    with pytest.raises(SpecError):
        Hyper(mode="nonsense")
    with pytest.raises(SpecError):
        Hyper(loss="hinge")
    with pytest.raises(SpecError):
        Hyper(bits=0)


def test_load_dataset(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,0\n3,4,1\n")
    d = load_dataset(str(p))
    assert d.inputs.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert d.targets.tolist() == [[0.0], [1.0]]


def test_load_dataset_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        load_dataset(str(p))
    p.write_text("a,label\nx,0\n")
    with pytest.raises(ParseError, match=":2"):
        load_dataset(str(p))


def test_preprocess_standardize_population_std():
    d = Dataset(inputs=np.array([[0.0], [2.0]]), targets=np.zeros((2, 1)))
    out = preprocess(d, standardize=True)
    # population std of {0, 2} is 1, mean 1
    assert out.inputs.tolist() == [[-1.0], [1.0]]
    assert out.zero_variance == []


def test_preprocess_zero_variance_passthrough():
    d = Dataset(inputs=np.array([[5.0, 1.0], [5.0, 3.0]]),
                targets=np.zeros((2, 1)))
    out = preprocess(d, standardize=True)
    assert out.zero_variance == [0]
    assert out.inputs[:, 0].tolist() == [5.0, 5.0]


def test_preprocess_one_hot_sorted_classes():
    d = Dataset(inputs=np.zeros((3, 1)),
                targets=np.array([[2.0], [0.0], [2.0]]))
    out = preprocess(d, one_hot=True)
    assert out.targets.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_conv_output_shape():
    shape = conv_output_shape((1, 6, 6), ConvLayer(filters=4, kernel=(3, 3)))
    assert shape == (4, 4, 4)
    shape = conv_output_shape((1, 6, 6), ConvLayer(filters=4, kernel=(3, 3),
                                                   pool=((2, 2), 2)))
    assert shape == (4, 2, 2)


def test_conv_output_shape_invalid():
    with pytest.raises(SpecError):
        conv_output_shape((1, 2, 2), ConvLayer(filters=1, kernel=(3, 3)))


def test_validate_arch_and_map_shapes():
    arch = ConvArch(input_shape=(1, 6, 6),
                    conv_layers=(ConvLayer(filters=3, kernel=(3, 3),
                                           pool=((2, 2), 2)),),
                    head_dim=2)
    assert validate_arch(arch) == [(1, 6, 6), (3, 2, 2)]
    assert conv_map_shapes(arch) == [(3, 4, 4)]


def test_split_indices(tmp_path):
    p = tmp_path / "split.txt"
    p.write_text("0\n2  # keep\n\n")
    assert split_indices(str(p)) == [0, 2]
    p.write_text("x\n")
    with pytest.raises(ParseError):
        split_indices(str(p))


def test_take():
    d = Dataset(inputs=np.arange(6.0).reshape(3, 2),
                targets=np.arange(3.0).reshape(3, 1))
    out = take(d, [2, 0])
    assert out.inputs.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert out.targets.tolist() == [[2.0], [0.0]]


def test_param_tensors_carry_each_layers_map_stride_and_pool():
    """Each tensor's ``units`` is its map before the pool; a 2-d weight's
    is its width, the head's included."""
    dense = param_tensors(DenseArch(3, (4, 2), 2))
    assert [(t.shape, t.units, t.pool) for t in dense] == [
        ((4, 3), (4,), None), ((2, 4), (2,), None), ((2, 2), (2,), None)]
    arch = ConvArch(input_shape=(2, 9, 9),
                    conv_layers=(ConvLayer(filters=3, kernel=(3, 3), stride=2,
                                           pool=((2, 2), 2)),
                                 ConvLayer(filters=4, kernel=(2, 2))),
                    head_dim=2)
    conv = param_tensors(arch)
    # 9x9 -> 4x4 at stride 2, pooled to 2x2 -> 1x1
    assert [(t.shape, t.units) for t in conv] == [
        ((3, 2, 3, 3), (3, 4, 4)), ((4, 3, 2, 2), (4, 1, 1)), ((2, 4), (2,))]
    assert [(t.stride, t.pool) for t in conv[:-1]] == [(2, ((2, 2), 2)), (1, None)]
    assert conv_map_shapes(arch) == [(3, 4, 4), (4, 1, 1)]
    x = np.arange(2 * 9 * 9.0).reshape(2, 9, 9)
    assert conv[-1].patches(x) is x
    # entry (c, u, v) of the kernel at position (h, w) meets x[c, 2h + u, 2w + v]
    assert conv[0].patches(x)[1, 3, 1, 2, 0] == x[1, 4, 6]


@pytest.mark.parametrize("walk", [
    param_tensors,
    lambda arch: propagate_bounds(arch, np.zeros(2), np.ones(2), -1.0, 1.0),
    lambda arch: count_forecast(arch, 1),
], ids=["param_tensors", "propagate_bounds", "count_forecast"])
def test_an_unknown_architecture_is_a_type_error(walk):
    with pytest.raises(TypeError, match="unknown architecture"):
        walk(object())
