"""Feed-forward network trained by minibatch gradient descent with Adam.

Hidden layers apply an affine map followed by the activation; the output
layer is a 2-way softmax, one output per label 0 and 1, trained on mean
cross-entropy. All randomness (weight init, epoch shuffles) flows from one
seeded generator, so the seed passed to ``mlp_train`` fixes the whole
trajectory. The input width is the training matrix's column count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, InternalError, ShapeMismatchError
from .settings import MlpConfig

LOG_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # W_l with shape (fan_in, fan_out)
    biases: list[np.ndarray]
    config: MlpConfig
    seed: int
    loss_history: list[float] = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            probs = mlp_forward(self, x)
        if np.isnan(probs).any():
            raise DataError("mlp outputs overflow: the class probabilities are not finite")
        return np.argmax(probs, axis=1)


def _logistic(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0, else exp(z) / (1 + exp(z)); exp never overflows.

    Written without masks, bit for bit the same: e = exp(-|z|), where
    ``minimum(z, -z)`` keeps a NaN as given (``-abs`` would set its sign
    bit); the numerator max(e, z >= 0) is 1 where z >= 0, else e, since
    0 <= e <= 1. Steps run in place: each fresh array this size costs page
    faults that outweigh its arithmetic. ``out`` may be ``z`` itself.
    """
    positive = z >= 0
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, positive, out=out)
    e += 1.0
    out /= e
    return out


def _activate_in_place(z: np.ndarray, kind: str) -> np.ndarray:
    """The hidden activation of ``z``, written over ``z``."""
    if kind == "logistic":
        return _logistic(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _layer_outputs(model: MlpModel, x: np.ndarray) -> Iterator[np.ndarray]:
    """Each layer's activation in turn; the last one is the softmax output.

    One loop for both paths: training keeps the input and every activation
    for the backward pass, prediction only the current one.
    """
    a = x
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        a = _softmax(z) if layer == last else _activate_in_place(z, model.config.hidden_activation)
        yield a


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Per-class probability matrix; each row sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ShapeMismatchError(f"expected {model.input_dim} inputs, got {x.shape[1]}")
    for a in _layer_outputs(model, x):
        pass
    return a


def cross_entropy(probs: np.ndarray, y: Sequence[int]) -> float:
    """Mean negative log-probability of the true class, floored at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    yv = np.asarray(y, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != yv.shape[0]:
        raise ShapeMismatchError(f"probs {p.shape} vs labels {yv.shape}")
    picked = p[np.arange(p.shape[0]), yv]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def _gradients_from_activations(
    model: MlpModel, acts: list[np.ndarray], yv: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    probs = acts[-1]
    n = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), yv] = 1.0
    delta = (probs - onehot) / n  # softmax + cross-entropy shortcut

    grad_w: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        a_prev = acts[layer]
        grad_w[layer] = a_prev.T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            upstream = delta @ model.weights[layer].T
            a = acts[layer]
            if model.config.hidden_activation == "logistic":
                upstream *= a  # in place: upstream * a * (1.0 - a), one array fewer
                upstream *= 1.0 - a
            else:
                upstream *= a > 0.0
            delta = upstream
    return grad_w, grad_b


def mlp_backward(
    model: MlpModel, x: np.ndarray, y: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of mean cross-entropy for every weight and bias."""
    x = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ShapeMismatchError("empty batch")
    if x.shape[0] != yv.shape[0]:
        raise ShapeMismatchError(f"batch {x.shape[0]} vs labels {yv.shape[0]}")
    return _gradients_from_activations(model, [x, *_layer_outputs(model, x)], yv)


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
    t: int,
    lr: float,
) -> None:
    """One Adam update with bias correction, written over ``params`` and
    ``state``; t is the 1-based step index. Nothing is written when the
    step is rejected: t below 1, params, grads and moments that differ in
    count or shape, or a read-only parameter or moment."""
    if t < 1:
        raise ConfigError("adam step index t must be >= 1")
    if len({len(params), len(grads), len(state.m), len(state.v)}) != 1:
        raise ShapeMismatchError("params, grads, and state must align")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not p.shape == g.shape == m.shape == v.shape:
            raise ShapeMismatchError(f"gradient {g.shape}, moments {m.shape} {v.shape} vs parameter {p.shape}")
    if not all(a.flags.writeable for a in (*params, *state.m, *state.v)):
        raise ConfigError("adam_step writes over params and state, and one of them is read-only")
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def init_params(
    config: MlpConfig, input_dim: int, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray], np.random.Generator]:
    """Glorot-uniform weights, zero biases, and the generator they came from."""
    dims = config.layer_dims(input_dim)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases, rng


def mlp_train(config: MlpConfig, x: np.ndarray, y: np.ndarray, seed: int) -> MlpModel:
    """Seeded minibatch training; bitwise deterministic for a fixed seed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ConfigError("training set is empty")
    if np.isnan(x).any():
        raise ConfigError("training matrix contains absent values; impute first")
    if not ((y == 0) | (y == 1)).all():
        raise ConfigError("labels must be 0 or 1")

    weights, biases, rng = init_params(config, x.shape[1], seed)
    model = MlpModel(weights=weights, biases=biases, config=config, seed=seed)
    params = weights + biases  # the model's own arrays: Adam updates them in place
    state = AdamState.zeros_like(params)
    n = x.shape[0]
    t = 0
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb, yb = x[idx], y[idx]
            acts = [xb, *_layer_outputs(model, xb)]
            loss_sum += cross_entropy(acts[-1], yb) * idx.shape[0]
            gw, gb = _gradients_from_activations(model, acts, yb)
            t += 1
            adam_step(params, gw + gb, state, t, config.learning_rate)
        model.loss_history.append(loss_sum / n)
        for p in params:
            if not np.isfinite(p).all():
                raise InternalError("non-finite parameter during training")
    for p in params:
        p.setflags(write=False)  # trained model is immutable and shareable
    return model
