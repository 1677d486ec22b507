"""Dense numerical kernels: SPD solves, a small MLP with analytic gradients,
and the Adam optimizer.

Everything is double precision. All functions are pure: optimizer state and
parameters go in and come out, nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingDivergedError

ACTIVATIONS = ("relu", "identity", "sigmoid")


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    # Split by sign to stay finite for large |x|; clamp so outputs remain
    # strictly inside (0, 1) even when exp() under/overflows.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "relu":
        return relu(x)
    if name == "identity":
        return x
    if name == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"unknown activation {name!r}")


def activation_grad(name: str, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Derivative of the activation wrt its pre-activation, to multiply the
    gradient by.

    For relu this is the boolean mask pre > 0: the subgradient at exactly 0
    is taken as 0, and no float copy of the mask is made.
    """
    if name == "relu":
        return pre > 0
    if name == "identity":
        return np.ones_like(pre)
    if name == "sigmoid":
        return post * (1.0 - post)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Layer:
    """One dense layer: y = act(A @ x + b). `bias` may be None."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray | None  # (out,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bias is not None and self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias shape does not match layer width")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MLPParams:
    """Ordered stack of dense layers with compatible dimensions."""

    layers: list[Layer]

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dims incompatible: {a.out_dim} -> {b.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "MLPParams":
        return MLPParams(
            [
                Layer(l.weights.copy(), None if l.bias is None else l.bias.copy(), l.activation)
                for l in self.layers
            ]
        )

    def param_dict(self) -> dict[str, np.ndarray]:
        """Name -> array view of every parameter, in a fixed order."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}.weight"] = layer.weights
            if layer.bias is not None:
                out[f"layer{i}.bias"] = layer.bias
        return out

    def with_params(self, params: dict[str, np.ndarray]) -> "MLPParams":
        """Rebuild the net with replacement arrays from `params`."""
        layers = []
        for i, layer in enumerate(self.layers):
            w = params[f"layer{i}.weight"]
            b = None
            if layer.bias is not None:
                b = params[f"layer{i}.bias"]
            layers.append(Layer(np.asarray(w, dtype=np.float64), b, layer.activation))
        return MLPParams(layers)


def mlp_forward(params: MLPParams, x: np.ndarray):
    """Run the net on a single vector (in,) or a batch (n, in).

    Returns (output, cache); the cache holds per-layer inputs, pre- and
    post-activations and is what mlp_backward consumes.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    if h.shape[1] != params.in_dim:
        raise ValueError(f"input dim {h.shape[1]} != first-layer dim {params.in_dim}")
    cache = []
    for layer in params.layers:
        pre = h @ layer.weights.T
        if layer.bias is not None:
            pre += layer.bias
        post = apply_activation(layer.activation, pre)
        cache.append((h, pre, post))
        h = post
    return (h[0] if squeeze else h), cache


def mlp_backward(params: MLPParams, cache, grad_output: np.ndarray):
    """Exact reverse-mode gradients for a forward pass.

    grad_output has the shape of the forward output. Returns the parameter
    gradients, keyed like param_dict(), plus the gradient with respect to the
    input (same leading shape as the forward input).
    """
    if len(cache) != len(params.layers):
        raise ValueError("cache does not match network depth")
    g = np.asarray(grad_output, dtype=np.float64)
    squeeze = g.ndim == 1
    g = g[None, :] if squeeze else g
    if g.shape[1] != params.out_dim:
        raise ValueError("grad_output dim does not match network output dim")
    grads: dict[str, np.ndarray] = {}
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        inp, pre, post = cache[i]
        if inp.shape[0] != g.shape[0]:
            raise ValueError("cache batch size does not match grad_output")
        g_pre = g * activation_grad(layer.activation, pre, post)
        grads[f"layer{i}.weight"] = g_pre.T @ inp
        if layer.bias is not None:
            grads[f"layer{i}.bias"] = g_pre.sum(axis=0)
        g = g_pre @ layer.weights
    return grads, (g[0] if squeeze else g)


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Takes one system, A (K, K) with b (K,), or a stack, A (n, K, K) with
    b (n, K). Each system of a stack is checked, factored and solved on its
    own, so its solution does not depend on the rest of the stack.

    Raises ValueError for an asymmetric system and LinAlgError when a
    factorization hits a non-positive pivot, which in this codebase signals
    a misconfigured ridge term.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("A must be square or a stack of square matrices")
    if b.shape != A.shape[:-1]:
        raise ValueError(f"b has shape {b.shape}, expected {A.shape[:-1]}")
    if A.size:
        axes = (-2, -1)
        asym = np.abs(A - A.swapaxes(-1, -2)).max(axis=axes)
        scale = np.maximum(1.0, np.maximum(A.max(axis=axes), -A.min(axis=axes)))
        if np.any(asym > 1e-10 * scale):
            raise ValueError(f"matrix not symmetric (max asymmetry {np.max(asym):.3e})")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SPD factorization failed ({exc}); check the ridge regularization"
        ) from exc
    return np.linalg.solve(A, b[..., None])[..., 0]


@dataclass
class AdamState:
    """Adam moments for a named set of parameter arrays."""

    step: int
    lr: float
    beta1: float
    beta2: float
    eps: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict[str, np.ndarray], lr: float,
             beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        m = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        v = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        return cls(step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps, m=m, v=v)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]):
    """One bias-corrected Adam update. Returns (new_params, new_state)."""
    if set(grads) - set(params):
        raise KeyError(f"gradients for unknown parameters: {sorted(set(grads) - set(params))}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for {name!r}")
    t = state.step + 1
    new_params = {}
    new_m = {}
    new_v = {}
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        new_params[name] = p - update
        new_m[name] = m
        new_v[name] = v
    return new_params, replace(state, step=t, m=new_m, v=new_v)
