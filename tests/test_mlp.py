import math

import numpy as np
import pytest

from gametrace.errors import ConfigError, ShapeMismatchError
from gametrace.mlp import (
    AdamState,
    MlpModel,
    _gradients_from_activations,
    _layer_outputs,
    adam_step,
    cross_entropy,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_train,
)
from gametrace.settings import MlpConfig

from oracles import adam_scalar_reference, reference_adam_step


def zero_model(input_dim=3, hidden=(4,), activation="logistic"):
    cfg = MlpConfig(hidden_sizes=hidden, hidden_activation=activation)
    dims = cfg.layer_dims(input_dim)
    weights = [np.zeros((a, b)) for a, b in zip(dims, dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return MlpModel(weights=weights, biases=biases, config=cfg)


def test_zero_network_outputs_uniform_probabilities():
    model = zero_model()
    probs = mlp_forward(model, np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(probs, 0.5)


def test_single_row_output_shape():
    model = zero_model()
    probs = mlp_forward(model, np.array([[1.0, 2.0, 3.0]]))
    assert probs.shape == (1, 2)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(0)
    cfg = MlpConfig(hidden_sizes=(7,))
    w, b, _ = init_params(cfg, 5, 1)
    model = MlpModel(weights=w, biases=b, config=cfg)
    probs = mlp_forward(model, rng.normal(size=(50, 5)))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_forward_matches_hand_computed_2_2_2_network():
    cfg = MlpConfig(hidden_sizes=(2,), hidden_activation="logistic")
    w1 = np.array([[0.5, -0.25], [0.75, 0.1]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, -1.0], [0.5, 0.25]])
    b2 = np.array([0.0, 0.3])
    model = MlpModel(weights=[w1, w2], biases=[b1, b2], config=cfg)
    x1, x2 = 0.8, -0.4

    # scalar-by-scalar recomputation of the same arithmetic
    z1a = x1 * 0.5 + x2 * 0.75 + 0.1
    z1b = x1 * -0.25 + x2 * 0.1 + -0.2
    a1a = 1.0 / (1.0 + math.exp(-z1a))
    a1b = 1.0 / (1.0 + math.exp(-z1b))
    z2a = a1a * 1.0 + a1b * 0.5 + 0.0
    z2b = a1a * -1.0 + a1b * 0.25 + 0.3
    m = max(z2a, z2b)
    ea, eb = math.exp(z2a - m), math.exp(z2b - m)
    want = (ea / (ea + eb), eb / (ea + eb))

    probs = mlp_forward(model, np.array([[x1, x2]]))
    assert probs[0, 0] == pytest.approx(want[0], abs=1e-12)
    assert probs[0, 1] == pytest.approx(want[1], abs=1e-12)


def test_forward_shape_mismatch():
    model = zero_model(input_dim=3)
    with pytest.raises(ShapeMismatchError):
        mlp_forward(model, np.zeros((2, 4)))


def test_cross_entropy_perfect_predictions_near_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert cross_entropy(probs, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_is_ln2():
    probs = np.full((4, 2), 0.5)
    assert cross_entropy(probs, [0, 1, 0, 1]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_matches_formula_oracle():
    rng = np.random.default_rng(2)
    raw = rng.random((10, 2)) + 0.05
    probs = raw / raw.sum(axis=1, keepdims=True)
    y = rng.integers(0, 2, size=10)
    want = sum(-math.log(probs[i, y[i]]) for i in range(10)) / 10
    assert cross_entropy(probs, y) == pytest.approx(want, abs=1e-12)


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        cross_entropy(np.full((3, 2), 0.5), [0, 1])


def test_output_bias_gradient_zero_at_symmetric_point():
    model = zero_model()
    x = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0], [0.3, 0.3, 0.3], [2.0, -2.0, 1.0]])
    y = [0, 1, 0, 1]  # balanced
    _, gb = mlp_backward(model, x, y)
    assert np.allclose(gb[-1], 0.0, atol=1e-15)


def test_duplicating_batch_rows_leaves_gradients_unchanged():
    cfg = MlpConfig(hidden_sizes=(4,))
    w, b, _ = init_params(cfg, 3, 3)
    model = MlpModel(weights=w, biases=b, config=cfg)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    gw1, gb1 = mlp_backward(model, x, y)
    gw2, gb2 = mlp_backward(model, np.vstack([x, x]), np.concatenate([y, y]))
    for a, c in zip(gw1 + gb1, gw2 + gb2):
        assert np.allclose(a, c, atol=1e-12)


@pytest.mark.parametrize("activation", ["logistic", "relu"])
def test_gradient_check_central_differences(activation):
    cfg = MlpConfig(hidden_sizes=(4,), hidden_activation=activation)
    weights, biases, _ = init_params(cfg, 3, 42)
    model = MlpModel(weights=weights, biases=biases, config=cfg)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    gw, gb = mlp_backward(model, x, y)
    analytic = gw + gb
    params = model.weights + model.biases

    h = 1e-5
    worst = 0.0
    for p, g in zip(params, analytic):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = cross_entropy(mlp_forward(model, x), y)
            p[idx] = orig - h
            down = cross_entropy(mlp_forward(model, x), y)
            p[idx] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(g[idx]), 1e-8)
            worst = max(worst, abs(numeric - g[idx]) / denom)
    assert worst < 1e-4


def test_backward_empty_batch_rejected():
    model = zero_model()
    with pytest.raises(ShapeMismatchError):
        mlp_backward(model, np.zeros((0, 3)), [])


def test_adam_zero_gradient_keeps_parameters():
    params = [np.array([[1.0, -2.0]]), np.array([0.5])]
    grads = [np.zeros_like(p) for p in params]
    before = [p.copy() for p in params]  # the step writes over params
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, t=1, lr=0.001)
    for p, q in zip(before, params):
        assert np.array_equal(p, q)


def test_adam_first_step_magnitude():
    params = [np.zeros((2, 2))]
    grads = [np.ones((2, 2))]
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, t=1, lr=0.001)
    # bias-corrected m_hat = v_hat = 1, so the update is -lr / (1 + eps)
    expected = -0.001 / (1.0 + 1e-8)
    assert np.allclose(params[0], expected, atol=1e-15)


def test_adam_trajectory_matches_scalar_reference():
    rng = np.random.default_rng(9)
    grads_seq = rng.normal(size=10).tolist()
    want = adam_scalar_reference(0.7, grads_seq, lr=0.01)

    params = [np.array([0.7])]
    state = AdamState.zeros_like(params)
    got = []
    for t, g in enumerate(grads_seq, start=1):
        adam_step(params, [np.array([g])], state, t=t, lr=0.01)
        got.append(float(params[0][0]))
    assert got == pytest.approx(want, abs=1e-14)


def test_adam_rejects_bad_t_and_shapes():
    params = [np.zeros(2)]
    state = AdamState.zeros_like(params)
    with pytest.raises(ConfigError):
        adam_step(params, [np.zeros(2)], state, t=0, lr=0.1)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, [np.zeros(3)], state, t=1, lr=0.1)


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("case", ["gradient shape", "moment shape", "moment count", "read-only parameter"])
def test_rejected_adam_step_changes_nothing(case):
    # The last parameter is the one at fault, so a step that wrote as it
    # went would already have changed the first one and its moments.
    params = [np.ones(2), np.ones(3)]
    state = AdamState.zeros_like(params)
    grads = [np.ones(2), np.ones(3)]
    if case == "gradient shape":
        grads[1] = np.ones(2)
    elif case == "moment shape":
        state.v[1] = np.zeros(2)
    elif case == "moment count":
        state.m.pop()
    else:
        params[1] = _read_only(np.ones(3))
    with pytest.raises(ConfigError if case == "read-only parameter" else ShapeMismatchError):
        adam_step(params, grads, state, t=1, lr=0.1)
    assert [p.tolist() for p in params] == [[1.0] * 2, [1.0] * 3]
    assert not any(m.any() for m in state.m + state.v)


@pytest.mark.parametrize("activation", ["logistic", "relu"])
def test_training_matches_the_functional_adam_reference(activation):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    cfg = MlpConfig(hidden_sizes=(6, 5), hidden_activation=activation, epochs=4,
                    batch_size=16, learning_rate=0.05)  # 16 does not divide 50
    got = mlp_train(cfg, x, y, 11)

    weights, biases, order = init_params(cfg, x.shape[1], 11)
    model = MlpModel(weights=weights, biases=biases, config=cfg)
    m = [np.zeros_like(p) for p in weights + biases]
    v = [np.zeros_like(p) for p in weights + biases]
    t, losses = 0, []
    for _ in range(cfg.epochs):
        perm = order.permutation(len(x))
        loss_sum = 0.0
        for start in range(0, len(x), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            acts = [x[idx], *_layer_outputs(model, x[idx])]
            loss_sum += cross_entropy(acts[-1], y[idx]) * idx.shape[0]
            gw, gb = _gradients_from_activations(model, acts, y[idx])
            t += 1
            params, m, v = reference_adam_step(model.weights + model.biases, gw + gb, m, v, t, cfg.learning_rate)
            model.weights, model.biases = params[: len(weights)], params[len(weights) :]
        losses.append(loss_sum / len(x))
    for a, b in zip(got.weights + got.biases, model.weights + model.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(got.loss_history, losses)


def test_config_rejects_zero_epochs():
    with pytest.raises(ConfigError):
        MlpConfig(epochs=0)


def test_train_is_bitwise_deterministic():
    x, y = _blobs(seed=11, n=120)
    cfg = MlpConfig(hidden_sizes=(8,), epochs=12, batch_size=32)
    a = mlp_train(cfg, x, y, 5)
    b = mlp_train(cfg, x, y, 5)
    assert a.loss_history == b.loss_history
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def _blobs(seed=0, n=200, gap=5.0):
    # bounded noise keeps the classes linearly separable with margin >= 1
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.uniform(-2.0, 2.0, size=(half, 2)) + [-gap / 2, 0.0]
    x1 = rng.uniform(-2.0, 2.0, size=(n - half, 2)) + [gap / 2, 0.0]
    x = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return x[order], y[order]


def test_train_separates_blobs():
    x, y = _blobs(seed=21, n=240)
    cfg = MlpConfig(hidden_sizes=(128,), epochs=100, learning_rate=0.001, batch_size=256)
    model = mlp_train(cfg, x, y, 42)
    acc = float((model.predict(x) == y).mean())
    assert acc >= 0.98
    assert len(model.loss_history) == 100
    assert all(np.isfinite(v) for v in model.loss_history)


def test_train_loss_nonincreasing_early_epochs():
    x, y = _blobs(seed=33, n=200)
    cfg = MlpConfig(hidden_sizes=(16,), epochs=10, batch_size=64)
    model = mlp_train(cfg, x, y, 2)
    hist = model.loss_history
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-3  # minibatch noise allowance


def test_train_rejects_nan_inputs_and_bad_labels():
    cfg = MlpConfig(epochs=1)
    x = np.array([[1.0, np.nan]])
    with pytest.raises(ConfigError):
        mlp_train(cfg, x, np.array([0]), 42)
    with pytest.raises(ConfigError):
        mlp_train(cfg, np.array([[1.0, 2.0]]), np.array([5]), 42)


def test_train_rejects_a_negative_label():
    # numpy reads class index -1 as the last class, so only a label check catches it
    x, y = _blobs(seed=3, n=20)
    y[4] = -1
    with pytest.raises(ConfigError, match="labels must be 0 or 1"):
        mlp_train(MlpConfig(hidden_sizes=(4,), epochs=1), x, y, 42)


@pytest.mark.parametrize("activation", ["logistic", "relu"])
@pytest.mark.parametrize("hidden", [(16,), (8, 5)])
def test_forward_is_bit_equal_to_the_training_pass(activation, hidden):
    # Prediction keeps only the current layer; training keeps every layer,
    # and the last one is the same array, bit for bit.
    x, y = _blobs(seed=5, n=120)
    cfg = MlpConfig(hidden_sizes=hidden, epochs=3, batch_size=32, hidden_activation=activation)
    model = mlp_train(cfg, x, y, 7)
    queries = np.vstack([x * 3.0, np.zeros((1, x.shape[1])), np.full((1, x.shape[1]), -40.0)])
    acts = [queries, *_layer_outputs(model, queries)]
    assert len(acts) == len(hidden) + 2 and acts[0] is queries
    assert mlp_forward(model, queries).tobytes() == acts[-1].tobytes()
    assert np.array_equal(model.predict(queries), np.argmax(acts[-1], axis=1))
