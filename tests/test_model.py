import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bannet.approx import build_square_approximator
from bannet.errors import DataError, DimensionError, ModelFormatError
from bannet.model import (
    BLOCK_VALUES,
    SIGN,
    ActivationParams,
    BannModel,
    Dataset,
    LayerParams,
    activate,
    count_nonzero_parameters,
    forward,
    load_model,
    model_from_dict,
    model_to_dict,
    mse,
    propagate,
    reparametrize_activation,
    save_model,
    squared_error_sums,
)

from conftest import hidden_pattern, make_random_model, random_activation


def test_activate_sign_boundary_maps_up():
    assert activate(np.array([-1.0, 0.0, 2.0]), SIGN).tolist() == [-1.0, 1.0, 1.0]


def test_activate_threshold_params():
    params = ActivationParams(10.0, 0.0, 1.0)
    assert activate(np.array([5.0]), params).tolist() == [0.0]


def test_activate_positive_scaling_invariance():
    rng = np.random.default_rng(0)
    z = rng.normal(size=40)
    for c in (0.5, 3.0, 1e6):
        assert np.array_equal(activate(c * z, SIGN), activate(z, SIGN))


def test_activate_total_on_finite_inputs():
    rng = np.random.default_rng(1)
    params = random_activation(rng)
    z = rng.normal(size=100) * 1e8
    out = activate(z, params)
    assert set(np.unique(out)) <= {params.h1, params.h2}


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.data())
def test_activate_matches_where_byte_for_byte(data):
    t = data.draw(FINITE, label="t")
    levels = data.draw(st.lists(st.one_of(st.just(-0.0), FINITE), min_size=2, max_size=2))
    h1, h2 = sorted(levels)
    assume(h1 < h2 and math.isfinite(h2 - h1))
    params = ActivationParams(t, h1, h2)
    edges = [math.nan, math.inf, -math.inf, t, math.nextafter(t, -math.inf),
             math.nextafter(t, math.inf), -0.0, 0.0]
    values = np.array(data.draw(st.lists(st.one_of(st.sampled_from(edges), st.floats()),
                                         min_size=1, max_size=12)))
    for z in (np.array(values[0]), values, np.stack([values, values[::-1]])):
        got, want = activate(z, params), np.where(z < t, h1, h2)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_activation_requires_ordered_outputs():
    with pytest.raises(ValueError):
        ActivationParams(0.0, 1.0, 1.0)


@pytest.mark.parametrize("values", [
    (math.nan, -1.0, 1.0), (0.0, math.nan, 1.0), (0.0, -1.0, math.nan),
    (math.inf, -1.0, 1.0), (0.0, -math.inf, 1.0), (0.0, -1.0, math.inf),
])
def test_activation_requires_finite_values(values):
    with pytest.raises(ValueError, match="finite"):
        ActivationParams(*values)


def test_forward_affine_when_no_hidden_layer():
    w = np.array([[2.0, -1.0]])
    model = BannModel(SIGN, (), LayerParams(w, np.array([0.5])))
    x = np.array([3.0, 4.0])
    assert forward(model, x)[0] == pytest.approx(2 * 3 - 4 + 0.5)


def test_forward_single_neuron_form():
    # c * sgn(w.x + b) + d
    model = BannModel(
        SIGN,
        (LayerParams(np.array([[1.5]]), np.array([-3.0])),),
        LayerParams(np.array([[2.0]]), np.array([7.0])),
    )
    assert forward(model, [4.0])[0] == pytest.approx(2.0 * 1.0 + 7.0)
    assert forward(model, [0.0])[0] == pytest.approx(2.0 * -1.0 + 7.0)


def test_forward_square_approximator_zero_at_origin():
    model = build_square_approximator(7)
    assert forward(model, [0.0])[0] == pytest.approx(0.0, abs=1e-15)


def test_forward_shape_error_names_layer():
    model = BannModel(
        SIGN,
        (LayerParams(np.ones((2, 3)), np.zeros(2)),),
        LayerParams(np.ones((1, 2)), np.zeros(1)),
    )
    with pytest.raises(DimensionError, match="layer 1"):
        forward(model, np.ones(4))
    with pytest.raises(DimensionError, match="batch of rows"):
        forward(model, np.ones((2, 4, 3)))


def test_forward_deterministic():
    rng = np.random.default_rng(2)
    model = make_random_model(rng)
    x = rng.normal(size=(20, model.in_width))
    a = forward(model, x)
    b = forward(model, x)
    assert np.array_equal(a, b)


def test_hidden_pattern_single_neuron():
    model = BannModel(
        SIGN,
        (LayerParams(np.array([[1.0]]), np.array([0.0])),),
        LayerParams(np.array([[1.0]]), np.array([0.0])),
    )
    assert hidden_pattern(model, [2.0], 1).tolist() == [1.0]
    assert hidden_pattern(model, [-2.0], 1).tolist() == [-1.0]


def test_hidden_pattern_composes_with_output_layer():
    rng = np.random.default_rng(3)
    model = make_random_model(rng, n_hidden=2)
    x = rng.normal(size=model.in_width)
    top = hidden_pattern(model, x, model.depth - 1)
    recomposed = model.output.weights @ top + model.output.biases
    assert np.allclose(recomposed, forward(model, x), rtol=0, atol=1e-12)


def test_hidden_pattern_range_check():
    rng = np.random.default_rng(4)
    model = make_random_model(rng, n_hidden=1)
    with pytest.raises(DimensionError):
        hidden_pattern(model, np.zeros(model.in_width), 2)


def unblocked_propagate(model, x, upto, with_output):
    out = x
    for layer in model.hidden[:upto]:
        out = activate(out @ layer.weights.T + layer.biases, model.activation)
    if with_output:
        out = out @ model.output.weights.T + model.output.biases
    return out


def test_blocked_forward_and_patterns_match_unblocked_bit_for_bit():
    # Dyadic weights on 1/64-grid inputs: every sum is exact in any order, so
    # the blocked and unblocked passes must agree bit for bit.
    rng = np.random.default_rng(11)
    widths = [3, 256, 40, 2]
    layers = [
        LayerParams(rng.integers(-64, 65, size=(b, a)) / 16.0, rng.integers(-64, 65, size=b) / 64.0)
        for a, b in zip(widths, widths[1:])
    ]
    model = BannModel(ActivationParams(0.25, -0.5, 1.5), tuple(layers[:-1]), layers[-1])
    rows_per_block = BLOCK_VALUES // max(widths[1:])
    m = 3 * rows_per_block + 37
    x = rng.integers(-256, 257, size=(m, 3)) / 64.0

    want = unblocked_propagate(model, x, 2, True)
    assert np.array_equal(forward(model, x), want)
    assert np.array_equal(forward(model, x[5]), want[5])
    assert forward(model, x[:0]).shape == (0, 2)
    for k in (1, 2):
        want = unblocked_propagate(model, x, k, False)
        assert np.array_equal(hidden_pattern(model, x, k), want)
        assert np.array_equal(hidden_pattern(model, x[-1], k), want[-1])
        assert hidden_pattern(model, x[:0], k).shape == (0, widths[k])


def test_forward_outputs_do_not_depend_on_block_size(monkeypatch):
    # Weights and inputs that no sum holds exactly: each output row is still
    # reduced on its own, so a block of one row and one of 546 give its bytes.
    rng = np.random.default_rng(12)
    hidden = LayerParams(rng.normal(size=(120, 8)), rng.normal(size=120))
    model = BannModel(SIGN, (hidden,), LayerParams(rng.normal(size=(3, 120)), rng.normal(size=3)))
    x = rng.normal(size=(3000, 8))
    outputs = []
    for block_values in (1 << 16, 1 << 6):
        monkeypatch.setattr("bannet.model.BLOCK_VALUES", block_values)
        outputs.append(forward(model, x))
    assert outputs[0].tobytes() == outputs[1].tobytes()
    assert forward(model, x[17]).tobytes() == outputs[0][17].tobytes()


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 130])
def test_packed_keys_are_packbits_of_the_bits_padded_to_whole_words(width):
    # The keys themselves, not their unpacked patterns: a padding bit left
    # set in a reused buffer would change a key but no pattern. Exact dyadic
    # sums make the blocked bits those of one unblocked product.
    rng = np.random.default_rng(width)
    layer = LayerParams(rng.integers(-64, 65, size=(width, 3)) / 16.0,
                        rng.integers(-64, 65, size=width) / 64.0)
    head = LayerParams(np.ones((1, width)), [0.0])
    model = BannModel(ActivationParams(0.25, -0.5, 1.5), (layer,), head)
    step = BLOCK_VALUES // width
    x = rng.integers(-256, 257, size=(2 * step + step // 3 + 1, 3)) / 64.0

    bits = np.packbits(x @ layer.weights.T + layer.biases < 0.25, axis=1, bitorder="little")
    want = np.zeros((len(x), 8 * -(-width // 64)), np.uint8)
    want[:, : bits.shape[1]] = bits
    got = propagate(model, x, 1, with_output=False)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert np.array_equal(propagate(model, x[-1], 1, with_output=False), want[-1])


def test_two_hidden_neurons_give_at_most_four_patterns():
    rng = np.random.default_rng(5)
    model = make_random_model(rng, d0=2, n_hidden=1, dl=1, max_width=2)
    while model.hidden[0].width != 2:
        model = make_random_model(rng, d0=2, n_hidden=1, dl=1, max_width=2)
    x = rng.normal(size=(500, 2))
    patterns = {tuple(row) for row in hidden_pattern(model, x, 1)}
    assert len(patterns) <= 4


def test_pattern_count_never_grows_with_depth():
    rng = np.random.default_rng(6)
    for _ in range(20):
        model = make_random_model(rng, n_hidden=int(rng.integers(2, 4)))
        x = rng.normal(size=(200, model.in_width))
        counts = [
            len({row.tobytes() for row in hidden_pattern(model, x, k)})
            for k in range(1, model.depth)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_mse_perfect_model_is_zero():
    model = BannModel(SIGN, (), LayerParams(np.array([[1.0]]), np.array([0.0])))
    x = np.arange(5.0)[:, None]
    assert mse(model, Dataset(x, x)) == 0.0


def test_mse_constant_predictor_gives_population_variance():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    model = BannModel(
        SIGN, (), LayerParams(np.zeros((1, 1)), np.array([float(y.mean())]))
    )
    data = Dataset(np.zeros((4, 1)), y[:, None])
    assert mse(model, data) == pytest.approx(float(np.var(y)), rel=1e-12)


def test_mse_hand_computed_example():
    # errors {1, 3} -> (1 + 9) / 2 = 5
    model = BannModel(SIGN, (), LayerParams(np.array([[1.0]]), np.array([0.0])))
    data = Dataset(np.array([[1.0], [2.0]]), np.array([[2.0], [5.0]]))
    assert mse(model, data) == pytest.approx(5.0, rel=1e-15)


def test_squared_error_sums_total_and_per_output():
    # errors (1, -2) and (3, 0) -> per output (1 + 9, 4 + 0), total 14
    pred = np.array([[1.0, 0.0], [2.0, 5.0]])
    labels = np.array([[2.0, -2.0], [5.0, 5.0]])
    total, per_output = squared_error_sums(pred, labels)
    assert total == 14.0
    assert per_output.tolist() == [10.0, 4.0]


def test_reparametrize_identity_target():
    rng = np.random.default_rng(7)
    model = make_random_model(rng)
    assert reparametrize_activation(model, model.activation) is model


def test_reparametrize_sign_to_threshold_forward_equality():
    rng = np.random.default_rng(8)
    model = make_random_model(rng, n_hidden=2)
    target = ActivationParams(0.0, 0.0, 1.0)
    other = reparametrize_activation(model, target)
    x = rng.normal(size=(1000, model.in_width))
    assert np.max(np.abs(forward(model, x) - forward(other, x))) <= 1e-9


def test_reparametrize_round_trip_restores_parameters():
    rng = np.random.default_rng(9)
    model = make_random_model(rng, n_hidden=3)
    there = reparametrize_activation(model, ActivationParams(0.0, 0.0, 1.0))
    back = reparametrize_activation(there, model.activation)
    for a, b in zip(list(model.hidden) + [model.output], list(back.hidden) + [back.output]):
        assert np.max(np.abs(a.weights - b.weights)) <= 1e-9
        assert np.max(np.abs(a.biases - b.biases)) <= 1e-9


def test_reparametrize_random_pairs_equivalence():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        model = make_random_model(rng, activation=random_activation(rng))
        target = random_activation(rng)
        other = reparametrize_activation(model, target)
        x = rng.normal(size=(100, model.in_width))
        worst = max(worst, float(np.max(np.abs(forward(model, x) - forward(other, x)))))
    assert worst <= 1e-8


def test_count_nonzero_all_zero_model():
    model = BannModel(
        SIGN,
        (LayerParams(np.zeros((3, 2)), np.zeros(3)),),
        LayerParams(np.zeros((1, 3)), np.zeros(1)),
    )
    assert count_nonzero_parameters(model) == 0


def test_count_nonzero_dense_model():
    rng = np.random.default_rng(11)
    model = BannModel(
        SIGN,
        (LayerParams(rng.uniform(1, 2, size=(3, 5)), rng.uniform(1, 2, size=3)),),
        LayerParams(rng.uniform(1, 2, size=(1, 3)), rng.uniform(1, 2, size=1)),
    )
    assert count_nonzero_parameters(model) == 5 * 3 + 3 + 3 * 1 + 1


def test_count_nonzero_respects_tolerance():
    # no threshold: a tiny weight counts, an exact zero does not
    model = BannModel(
        SIGN,
        (LayerParams(np.array([[1e-6, 2.0]]), np.array([0.5])),),
        LayerParams(np.array([[1.0]]), np.array([0.0])),
    )
    assert count_nonzero_parameters(model) == 4


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.ones((3, 2)), np.ones((2, 1)))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan]]), np.ones((1, 1)))


def test_layer_and_dataset_copy_their_inputs_and_are_read_only():
    # Training overwrites its unit arrays in place after building a network
    # from them, so the network must hold copies.
    weights, biases = np.ones((2, 3)), np.zeros(2)
    features, labels = np.ones((4, 2)), np.zeros((4, 1))
    layer = LayerParams(weights, biases)
    data = Dataset(features, labels)
    for source in (weights, biases, features, labels):
        source += 7.0
    assert np.array_equal(layer.weights, np.ones((2, 3)))
    assert np.array_equal(layer.biases, np.zeros(2))
    assert np.array_equal(data.features, np.ones((4, 2)))
    assert np.array_equal(data.labels, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        layer.weights[0, 0] = 2.0
    with pytest.raises(ValueError):
        data.features[0, 0] = 2.0


def test_model_dimension_chain_validated():
    with pytest.raises(DimensionError):
        BannModel(
            SIGN,
            (LayerParams(np.ones((2, 3)), np.zeros(2)),),
            LayerParams(np.ones((1, 5)), np.zeros(1)),
        )


def test_serialization_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(12)
    model = make_random_model(rng, activation=random_activation(rng))
    first = tmp_path / "model.json"
    second = tmp_path / "again.json"
    save_model(model, str(first))
    save_model(load_model(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_serialization_preserves_forward(tmp_path):
    rng = np.random.default_rng(13)
    model = make_random_model(rng)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    x = rng.normal(size=(20, model.in_width))
    assert np.array_equal(forward(model, x), forward(loaded, x))


def test_loader_rejects_unknown_version():
    doc = model_to_dict(
        BannModel(SIGN, (), LayerParams(np.ones((1, 1)), np.zeros(1)))
    )
    doc["version"] = 99
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


@pytest.mark.parametrize("key,value", [("t", math.nan), ("h2", math.inf)])
def test_loader_rejects_non_finite_activation(tmp_path, key, value):
    doc = model_to_dict(BannModel(SIGN, (), LayerParams(np.ones((1, 1)), np.zeros(1))))
    doc["activation"][key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))  # JSON with NaN and Infinity, as Python writes it
    with pytest.raises(ModelFormatError, match="finite"):
        load_model(str(path))


# float() takes true and false as 1 and 0 and numeric strings as numbers,
# numpy turns null into NaN, and 1.0 == 1, so each of these would load as a
# valid model, or fail only later as a non-finite value, if the loader only
# converted values.
NOT_A_NUMBER = {
    "version true": (("version",), True),
    "version 1.0": (("version",), 1.0),
    "activation false": (("activation", "t"), False),
    "weight true": (("hidden", 0, "weights", 0, 0), True),
    "bias false": (("output", "biases", 0), False),
    "activation string": (("activation", "t"), "0"),
    "weight string": (("hidden", 0, "weights", 0, 0), "1.5"),
    "bias string": (("output", "biases", 0), "2"),
    "bias null": (("hidden", 0, "biases", 0), None),
}


@pytest.mark.parametrize("keys,value", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_loader_rejects_booleans_and_a_float_version(tmp_path, keys, value):
    one = LayerParams(np.ones((1, 1)), np.zeros(1))
    doc = model_to_dict(BannModel(SIGN, (one,), one))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_loader_rejects_malformed_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "hidden": []}))
    with pytest.raises(ModelFormatError):
        load_model(str(path))
