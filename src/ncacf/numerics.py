"""Dense numerical kernels: SPD solves, a small MLP with analytic gradients,
the Adam optimizer, and a block-order map over two worker threads.

Everything is double precision. adam_step updates the parameters and moments
it is given in place; the MLP passes leave their arguments unchanged, but
relu overwrites its own pre-activation, which a cache then holds as output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TrainingDivergedError

ACTIVATIONS = ("relu", "identity", "sigmoid")

_POOL: ThreadPoolExecutor | None = None  # built by the first map_blocks that uses it
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def map_blocks(fn, blocks):
    """Yield fn(block) for each block, in block order.

    With two or more blocks and two or more cores this process may run on,
    the blocks run on a two-thread pool, built once (numpy leaves the GIL in
    its kernels); otherwise this is plain map. A caller that reduces the
    results in the order they are yielded gets the same bits either way. If
    fn raises, the blocks not yet started are cancelled and the running ones
    are waited for before the exception leaves, so no block runs after it.
    fn must not call map_blocks itself.
    """
    global _POOL
    blocks = list(blocks)
    affinity = getattr(os, "sched_getaffinity", None)  # Linux; elsewhere every core
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    if len(blocks) < 2 or cores < 2:
        yield from map(fn, blocks)
        return
    if _POOL is None:
        _POOL = ThreadPoolExecutor(2, thread_name_prefix="ncacf-block")
    futures = [_POOL.submit(fn, block) for block in blocks]
    try:
        for future in futures:
            yield future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def sigmoid(x):
    # 1 / (1 + e) for x >= 0, e / (1 + e) below, with e = exp(-|x|) <= 1; clamp
    # so outputs remain strictly inside (0, 1) even when exp() underflows.
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=out)


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    """act(x); relu overwrites x and identity returns it."""
    if name == "relu":
        return relu(x, out=x)
    if name == "identity":
        return x
    if name == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"unknown activation {name!r}")


def activation_backward(name: str, g: np.ndarray, post: np.ndarray,
                        owned: bool) -> np.ndarray:
    """g times the activation's derivative at the layer output `post`; into g
    when the caller owns g. The relu mask post > 0 (= pre > 0) takes the
    subgradient at 0 as 0; identity returns g itself."""
    if name == "identity":
        return g
    out = g if owned else None
    if name == "relu":
        return np.multiply(g, post > 0, out=out)
    if name == "sigmoid":
        return np.multiply(g, post * (1.0 - post), out=out)
    raise ValueError(f"unknown activation {name!r}")


def sum_rows(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-2) of a C-contiguous array, to the same bits in a third of
    the time: einsum adds row after row as sum does, but one column sum adds
    pairwise."""
    if a.shape[-1] == 1:
        return a.sum(axis=-2)
    return np.einsum("...ij->...j", a)


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
                raise ValueError(f"layer dims incompatible: {a.out_dim} -> {b.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @cached_property
    def tail(self) -> "MLPParams":
        """The later layers, built once: `layers` is never replaced."""
        return MLPParams(self.layers[1:])

    def param_dict(self) -> dict[str, np.ndarray]:
        """Name -> array view of every parameter, in a fixed order."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}.weight"] = layer.weights
            if layer.bias is not None:
                out[f"layer{i}.bias"] = layer.bias
        return out


def mlp_forward(params: MLPParams, x: np.ndarray):
    """Run the net on a batch x (n, in). Returns (output, cache); the cache
    holds per layer its input, pre-activation and output (one array for a
    relu or identity layer) for mlp_backward.
    """
    h = np.asarray(x, dtype=np.float64)
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
    return h, cache


def mlp_backward(params: MLPParams, cache, grad_output: np.ndarray):
    """Exact reverse-mode gradients for a forward pass.

    grad_output (n, out) has the shape of the forward output and is left
    unchanged. Returns the parameter gradients, keyed like param_dict(), plus
    the gradient with respect to the input (n, in).
    """
    if len(cache) != len(params.layers):
        raise ValueError("cache does not match network depth")
    # A C-ordered gradient keeps the bias sums in row order (see sum_rows).
    g = np.ascontiguousarray(grad_output, dtype=np.float64)
    owned = g is not grad_output
    if g.shape[1] != params.out_dim:
        raise ValueError("grad_output dim does not match network output dim")
    grads: dict[str, np.ndarray] = {}
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        inp, _, post = cache[i]
        if inp.shape[0] != g.shape[0]:
            raise ValueError("cache batch size does not match grad_output")
        g_pre = activation_backward(layer.activation, g, post, owned)
        grads[f"layer{i}.weight"] = g_pre.T @ inp
        if layer.bias is not None:
            grads[f"layer{i}.bias"] = sum_rows(g_pre)
        # With one output neuron this is an outer product; broadcasting is faster.
        g = g_pre * layer.weights if layer.out_dim == 1 else g_pre @ layer.weights
        owned = True
    return grads, g


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by one Cholesky
    factorization A = L L^T per system, then a forward and a back
    substitution.

    Takes one system, A (K, K) with b (K,), or a stack, A (n, K, K) with
    b (n, K). One stacked np.linalg.cholesky factors every system and is
    also the positive-definiteness check. The substitutions run over the
    whole stack one column of L at a time with elementwise operations only,
    so each system's solution does not depend on the rest of the stack.

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
        # One scratch buffer holds |A - A^T|, then |A|.
        d = A - A.swapaxes(-1, -2)
        asym = np.abs(d, out=d).max(axis=axes)
        scale = np.maximum(1.0, np.abs(A, out=d).max(axis=axes))
        if np.any(asym > 1e-10 * scale):
            raise ValueError(f"matrix not symmetric (max asymmetry {np.max(asym):.3e})")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SPD factorization failed ({exc}); check the ridge regularization"
        ) from exc
    # K-major copies: L[i, j] and x[j] are contiguous rows over the stack.
    L = np.moveaxis(L, (-2, -1), (0, 1)).copy()
    x = np.moveaxis(b, -1, 0).copy()
    k = x.shape[0]
    for j in range(k):  # L y = b
        x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    for j in range(k - 1, -1, -1):  # L^T x = y; column j of L^T is row j of L
        x[j] /= L[j, j]
        x[:j] -= L[j, :j] * x[j]
    return np.moveaxis(x, 0, -1)


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
    """One bias-corrected Adam update, in place: every array of `params` and
    its moments in `state` are overwritten and state.step advances, so the
    caller must own them. Returns (params, state)."""
    if set(grads) - set(params):
        raise KeyError(f"gradients for unknown parameters: {sorted(set(grads) - set(params))}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for {name!r}")
    t = state.step + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, p -= lr (m / bc1) /
        # (sqrt(v / bc2) + eps), each product and sum in this order.
        term = (1.0 - state.beta1) * g
        m *= state.beta1
        m += term
        np.multiply(1.0 - state.beta2, g, out=term)
        term *= g
        v *= state.beta2
        v += term
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bc1, out=term)
        term *= state.lr
        term /= denom
        p -= term
    state.step = t
    return params, state
