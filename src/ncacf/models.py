"""Model variants: parameter containers, initialization, prediction paths,
and checkpoint serialization.

A model couples a user embedding matrix W (K x U), an optional free item
embedding matrix H (K x I), an optional content extractor mapping item
features to the embedding space, and an interaction head that is either a
plain dot product or a tower MLP applied to the combined embeddings.
"""

from __future__ import annotations

import io
import json
import logging
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import ConfidenceScheme, FeatureTable, replacing
from .errors import ColdStartUnsupportedError, ConfigError, DataError
from .numerics import (AdamState, Layer, MLPParams, activation_grad,
                       apply_activation, mlp_backward, mlp_forward,
                       read_adam_blob, read_mlp_blob, write_adam_blob,
                       write_mlp_blob)
from .rng import rng_for

log = logging.getLogger(__name__)

FAMILIES = ("wmf", "dcb", "mf_hybrid", "mf_uni", "ncacf", "ncf")
COUPLINGS = ("relaxed", "strict", "content_free")
COMBINATIONS = ("multiplication", "concatenation")
INTERACTION_KINDS = ("dot_product", "deep")


@dataclass(frozen=True)
class ModelVariant:
    """Which estimator to build; validated against the family constraints."""

    family: str
    coupling: str
    interaction_kind: str = "dot_product"
    combination: str = "multiplication"
    q_hidden: int = 0
    # identity exists only so the dot-product reduction can be checked.
    output_activation: str = "sigmoid"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.coupling not in COUPLINGS:
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if self.interaction_kind not in INTERACTION_KINDS:
            raise ConfigError(f"unknown interaction {self.interaction_kind!r}")
        if self.combination not in COMBINATIONS:
            raise ConfigError(f"unknown combination {self.combination!r}")
        if self.family in ("wmf", "ncf") and self.coupling != "content_free":
            raise ConfigError(f"{self.family} requires coupling=content_free")
        if self.family in ("dcb", "mf_hybrid", "mf_uni"):
            if self.coupling == "content_free":
                raise ConfigError(f"{self.family} requires relaxed or strict coupling")
            if self.interaction_kind != "dot_product":
                raise ConfigError(f"{self.family} uses a dot-product interaction")
        if self.family == "wmf" and self.interaction_kind != "dot_product":
            raise ConfigError("wmf uses a dot-product interaction")
        if self.family == "ncf" and self.interaction_kind != "deep":
            raise ConfigError("ncf uses a deep interaction")
        if self.q_hidden < 0:
            raise ConfigError("q_hidden must be >= 0")
        if self.output_activation not in ("sigmoid", "identity"):
            raise ConfigError(f"unknown output activation {self.output_activation!r}")

    @property
    def has_content(self) -> bool:
        return self.coupling != "content_free"

    @property
    def has_free_items(self) -> bool:
        """True when H is a free parameter (relaxed and content-free models)."""
        return self.coupling != "strict"


@dataclass(frozen=True)
class Hyperparams:
    """Training constants shared by every estimator.

    n_iters is the number of outer ALS(+GD) iterations; n_gd the gradient
    epochs per iteration; max_epochs the budget of a purely gradient-based
    run; pretrain/finetune split the budget of the deep-interaction models.
    """

    embed_dim: int = 16
    lambda_w: float = 1.0
    lambda_h: float = 10.0
    tau: float = 7.0
    alpha: float = 2.0
    epsilon: float = 1e-6
    eta: float = 1e-2
    batch_items: int = 64
    n_iters: int = 20
    n_gd: int = 5
    max_epochs: int = 50
    pretrain_epochs: int = 25
    finetune_epochs: int = 50
    eval_every: int = 5
    hidden_width: int = 64
    extractor_layers: int = 3

    def __post_init__(self):
        for name in ("lambda_w", "lambda_h", "alpha", "eta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.tau < 1:
            raise ConfigError("tau must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.batch_items < 1:
            raise ConfigError("batch_items must be >= 1")
        for name in ("embed_dim", "hidden_width", "extractor_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("n_iters", "n_gd", "max_epochs", "pretrain_epochs",
                     "finetune_epochs", "eval_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def scheme(self) -> ConfidenceScheme:
        return ConfidenceScheme(self.tau, self.alpha, self.epsilon)


@dataclass
class Embeddings:
    """User matrix W (K x U) and item matrix H (K x I); column u/i layout.

    H is None for strict-coupling models, whose item vectors always come
    from the content extractor.
    """

    W: np.ndarray
    H: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.W.shape[0]


def combined_dim(embed_dim: int, combination: str) -> int:
    return embed_dim if combination == "multiplication" else 2 * embed_dim


def tower_widths(combined: int, q_hidden: int) -> list[int]:
    """Hidden widths combined/2^(q-1), floored and clamped at 1."""
    widths = []
    for q in range(1, q_hidden + 1):
        w = combined // (2 ** (q - 1))
        if w < 1:
            w = 1
            log.warning("tower layer %d clamped to width 1 (combined dim %d)", q, combined)
        widths.append(w)
    return widths


def _lecun_layer(rng: np.random.Generator, out_dim: int, in_dim: int,
                 activation: str) -> Layer:
    limit = np.sqrt(3.0 / in_dim)
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    b = rng.uniform(-limit, limit, size=out_dim)
    return Layer(w, b, activation)


def build_extractor(feature_dim: int, embed_dim: int, hidden_width: int,
                    num_layers: int, rng: np.random.Generator) -> MLPParams:
    """Content extractor: relu hidden layers, identity output of size K."""
    if num_layers < 1:
        raise ConfigError("extractor needs at least one layer")
    layers = []
    in_dim = feature_dim
    for _ in range(num_layers - 1):
        layers.append(_lecun_layer(rng, hidden_width, in_dim, "relu"))
        in_dim = hidden_width
    layers.append(_lecun_layer(rng, embed_dim, in_dim, "identity"))
    return MLPParams(layers)


def build_tower(combined: int, q_hidden: int, rng: np.random.Generator,
                output_activation: str = "sigmoid") -> MLPParams:
    """Interaction tower: halving relu hidden layers, then a single-neuron
    bias-free output layer whose weights start at one."""
    layers = []
    in_dim = combined
    for width in tower_widths(combined, q_hidden):
        layers.append(_lecun_layer(rng, width, in_dim, "relu"))
        in_dim = width
    layers.append(Layer(np.ones((1, in_dim)), None, output_activation))
    return MLPParams(layers)


@dataclass
class Model:
    """A trainable/evaluable model instance."""

    variant: ModelVariant
    num_users: int
    num_items: int
    embed_dim: int
    feature_dim: int
    embeddings: Embeddings
    extractor: MLPParams | None
    interaction: MLPParams | None
    init_seed: int = 0
    extras: dict = field(default_factory=dict)

    def copy(self) -> "Model":
        return Model(
            variant=self.variant,
            num_users=self.num_users,
            num_items=self.num_items,
            embed_dim=self.embed_dim,
            feature_dim=self.feature_dim,
            embeddings=Embeddings(self.embeddings.W.copy(),
                                  None if self.embeddings.H is None else self.embeddings.H.copy()),
            extractor=None if self.extractor is None else self.extractor.copy(),
            interaction=None if self.interaction is None else self.interaction.copy(),
            init_seed=self.init_seed,
            extras=dict(self.extras),
        )

    def check_fits(self, num_users: int, num_items: int, feature_dim: int,
                   source: str, target: str) -> None:
        """ConfigError unless the model was built for this many users and
        items and, when it has content, this feature width."""
        content = self.variant.has_content
        have = (self.num_users, self.num_items, self.feature_dim if content else 0)
        want = (num_users, num_items, feature_dim if content else 0)
        if have != want:
            raise ConfigError(f"{source} has (users, items, features) = {have}, "
                              f"{target} {want}")


def init_model(variant: ModelVariant, num_users: int, num_items: int,
               embed_dim: int, feature_dim: int, seed: int,
               hidden_width: int = 64, extractor_layers: int = 3,
               with_interaction: bool = True) -> Model:
    """Draw a fresh model: embeddings ~ N(0, 1e-2^2), MLP weights/biases
    uniform on +-sqrt(3/fan_in), interaction output weights all ones.

    with_interaction=False leaves a deep variant's tower unbuilt (used by the
    dot-product pretraining phase, which attaches the tower later).
    """
    if min(num_users, num_items, embed_dim) < 1:
        raise ConfigError("model dimensions must be positive")
    if variant.has_content and feature_dim < 1:
        raise ConfigError("content-aware models need a positive feature dim")
    W = rng_for(seed, "init.embeddings.W").normal(0.0, 1e-2, size=(embed_dim, num_users))
    H = None
    if variant.has_free_items:
        H = rng_for(seed, "init.embeddings.H").normal(0.0, 1e-2, size=(embed_dim, num_items))
    extractor = None
    if variant.has_content:
        extractor = build_extractor(feature_dim, embed_dim, hidden_width,
                                    extractor_layers, rng_for(seed, "init.extractor"))
    interaction = None
    if variant.interaction_kind == "deep" and with_interaction:
        interaction = attach_tower(variant, embed_dim, seed)
    return Model(variant, num_users, num_items, embed_dim, feature_dim,
                 Embeddings(W, H), extractor, interaction, init_seed=seed)


def attach_tower(variant: ModelVariant, embed_dim: int, seed: int) -> MLPParams:
    return build_tower(combined_dim(embed_dim, variant.combination),
                       variant.q_hidden, rng_for(seed, "init.interaction"),
                       variant.output_activation)


def extract_item_embeddings(model: Model, features: FeatureTable,
                            items: np.ndarray | None = None) -> np.ndarray:
    """phi(x_i) for the given items (default: all), as a (K, n) matrix."""
    if model.extractor is None:
        raise ConfigError("model has no content extractor")
    rows = features.values if items is None else features.values[np.asarray(items)]
    out, _ = mlp_forward(model.extractor, rows)
    return out.T


def item_vectors(model: Model, items: np.ndarray, features: FeatureTable | None,
                 setting: str) -> np.ndarray:
    """Item embedding columns used for prediction, as a (K, n) matrix.

    Relaxed models use stored embeddings warm and the extractor cold; strict
    models always use the extractor; content-free models have no cold path.
    """
    if setting not in ("warm", "cold"):
        raise ValueError(f"unknown setting {setting!r}")
    items = np.asarray(items, dtype=np.int64)
    coupling = model.variant.coupling
    if coupling == "strict" or (coupling == "relaxed" and setting == "cold"):
        if features is None:
            raise ConfigError("this model/setting requires item features")
        return extract_item_embeddings(model, features, items)
    if coupling == "content_free" and setting == "cold":
        raise ColdStartUnsupportedError(
            f"{model.variant.family} has no content branch and cannot score cold items")
    return model.embeddings.H[:, items]


def tower_grid_forward(tower: MLPParams, W: np.ndarray, item_vecs: np.ndarray,
                       combination: str):
    """The tower over every (user, item) pair of W (K, U) and item_vecs
    (K, n). Returns the (U, n) scores and the cache tower_grid_backward
    consumes.

    Multiplication runs the whole tower on the (U, n, K) product grid.
    Concatenation never builds the (U, n, 2K) grid: its first layer
    A [w; h] + b = A_w w + A_h h + b is the broadcast sum of per-user and
    per-item pre-activations, and only the later layers run on grid rows.
    """
    U, n = W.shape[1], item_vecs.shape[1]
    if combination == "multiplication":
        grid = (W.T[:, None, :] * item_vecs.T[None, :, :]).reshape(U * n, -1)
        out, cache = mlp_forward(tower, grid)
        return out.reshape(U, n), (W, item_vecs, None, cache)
    first = tower.layers[0]
    k = W.shape[0]
    per_user = W.T @ first.weights[:, :k].T  # (U, width)
    if first.bias is not None:
        per_user += first.bias
    pre = per_user[:, None, :] + (item_vecs.T @ first.weights[:, k:].T)[None, :, :]
    post = apply_activation(first.activation, pre)
    if len(tower.layers) == 1:
        return post[:, :, 0], (W, item_vecs, (pre, post), None)
    out, cache = mlp_forward(MLPParams(tower.layers[1:]), post.reshape(U * n, -1))
    return out.reshape(U, n), (W, item_vecs, (pre, post), cache)


def tower_grid_backward(tower: MLPParams, cache, grad_scores: np.ndarray):
    """Reverse pass of tower_grid_forward for the (U, n) score gradient.

    Returns (tower gradients keyed like tower.param_dict(), gW (K, U),
    gH (K, n)). A concatenation tower's first layer is reduced through the
    per-user and per-item sums G_u (U, width) and G_i (n, width) of its
    pre-activation gradient: grad A_w = G_u^T W^T, grad A_h = G_i^T H^T,
    gW = A_w^T G_u^T, gH = A_h^T G_i^T.
    """
    W, item_vecs, first_cache, rest_cache = cache
    U, n = grad_scores.shape
    if first_cache is None:
        grads, g_grid = mlp_backward(tower, rest_cache, grad_scores.reshape(-1, 1))
        g_grid = g_grid.reshape(U, n, -1)
        gW = np.einsum("unk,kn->ku", g_grid, item_vecs)
        gH = np.einsum("unk,ku->kn", g_grid, W)
        return grads, gW, gH
    first = tower.layers[0]
    pre, post = first_cache
    grads: dict[str, np.ndarray] = {}
    if rest_cache is None:
        g_post = grad_scores[:, :, None]
    else:
        rest, g_post = mlp_backward(MLPParams(tower.layers[1:]), rest_cache,
                                    grad_scores.reshape(-1, 1))
        for name, arr in rest.items():  # "layer{i}.x" of the later layers
            i, part = name[len("layer"):].split(".")
            grads[f"layer{int(i) + 1}.{part}"] = arr
        g_post = g_post.reshape(U, n, -1)
    g_pre = g_post * activation_grad(first.activation, pre, post)
    G_u = g_pre.sum(axis=1)
    G_i = g_pre.sum(axis=0)
    k = W.shape[0]
    grads["layer0.weight"] = np.concatenate([G_u.T @ W.T, G_i.T @ item_vecs.T], axis=1)
    if first.bias is not None:
        grads["layer0.bias"] = G_u.sum(axis=0)
    gW = first.weights[:, :k].T @ G_u.T
    gH = first.weights[:, k:].T @ G_i.T
    return grads, gW, gH


# Floats one block of a users x items computation may hold: the dense R, C
# and scores of an objective block, or an evaluation block's scores and
# ranking temporaries. Both blocks also count a tower's widest grid per pair,
# though the tower itself runs on one user sub-block of them at a time.
BLOCK_FLOATS = 1 << 21

# Floats in one grid of a tower user sub-block (512 KiB): a sub-block's few
# live grids fit a core's L2 cache (2 MiB on the Xeon it was tuned on), where
# 2^16-2^18 ran a concatenation tower's batches fastest and 2^14-2^15 slower.
TOWER_BLOCK_FLOATS = 1 << 16


def block_units(floats_per_unit: int, budget: int | None = None) -> int:
    """Units (items of a tower objective, users of an evaluation or of a
    tower sub-block) in one block whose temporaries take floats_per_unit
    floats per unit: as many as fit `budget` (default BLOCK_FLOATS), and at
    least one."""
    return max(1, (BLOCK_FLOATS if budget is None else budget) // floats_per_unit)


def grid_width(model: Model) -> int:
    """Widest grid per (user, item) pair that the tower builds: its widest
    layer (and the product grid's K)."""
    widths = [layer.out_dim for layer in model.interaction.layers]
    if model.variant.combination == "multiplication":
        widths.append(model.interaction.in_dim)
    return max(widths)


def tower_user_blocks(model: Model, num_users: int, num_items: int) -> list[slice]:
    """Consecutive slices of 0..num_users-1, each a sub-block of users whose
    tower grids over num_items items fit TOWER_BLOCK_FLOATS (or one user)."""
    step = block_units(max(1, num_items) * grid_width(model), TOWER_BLOCK_FLOATS)
    return [slice(lo, lo + step) for lo in range(0, num_users, step)]


def score_matrix(model: Model, item_vecs: np.ndarray, users=slice(None)) -> np.ndarray:
    """Scores of the given users (default: all) against the given item-vector
    columns: (len(users), n). A tower scores one user sub-block at a time."""
    W = model.embeddings.W[:, users]
    if model.interaction is None:
        return W.T @ item_vecs
    scores = np.empty((W.shape[1], item_vecs.shape[1]))
    for block in tower_user_blocks(model, W.shape[1], item_vecs.shape[1]):
        scores[block] = tower_grid_forward(model.interaction, W[:, block], item_vecs,
                                           model.variant.combination)[0]
    return scores


# ---------------------------------------------------------------------------
# Checkpoints
#
# Layout: magic b"NCKP", u32 version, u32 header_len, UTF-8 JSON header, then
# tagged sections until EOF. Section: u8 kind (0 array / 1 mlp / 2 adam),
# u16 name_len, name, u64 payload_len, payload. Array payload: u8 ndim,
# u32[ndim] dims, f64 little-endian data.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"NCKP"
_CKPT_VERSION = 1
_KIND_ARRAY, _KIND_MLP, _KIND_ADAM = 0, 1, 2


def _array_payload(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    buf.write(struct.pack("<B", arr.ndim))
    buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return buf.getvalue()


def _read_array_payload(raw: bytes) -> np.ndarray:
    (ndim,) = struct.unpack_from("<B", raw, 0)
    shape = struct.unpack_from(f"<{ndim}I", raw, 1)
    data = np.frombuffer(raw, dtype="<f8", offset=1 + 4 * ndim)
    return data.reshape(shape).copy()


def write_checkpoint(path, header: dict, arrays: dict[str, np.ndarray] | None = None,
                     mlps: dict[str, MLPParams] | None = None,
                     adams: dict[str, AdamState] | None = None) -> None:
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(raw_header)))
        fh.write(raw_header)
        for kind, table, dump in (
            (_KIND_ARRAY, arrays or {}, _array_payload),
            (_KIND_MLP, mlps or {}, None),
            (_KIND_ADAM, adams or {}, None),
        ):
            for name in sorted(table):
                if kind == _KIND_ARRAY:
                    payload = dump(table[name])
                else:
                    buf = io.BytesIO()
                    (write_mlp_blob if kind == _KIND_MLP else write_adam_blob)(buf, table[name])
                    payload = buf.getvalue()
                raw_name = name.encode("utf-8")
                fh.write(struct.pack("<BH", kind, len(raw_name)))
                fh.write(raw_name)
                fh.write(struct.pack("<Q", len(payload)))
                fh.write(payload)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    # Checked against the bytes left before reading, so that a garbled
    # length allocates nothing.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise DataError(f"{path}: checkpoint truncated in {what} "
                        f"({left} of {n} bytes left)")
    return fh.read(n)


_SECTION_READERS = {
    _KIND_ARRAY: _read_array_payload,
    _KIND_MLP: lambda raw: read_mlp_blob(io.BytesIO(raw)),
    _KIND_ADAM: lambda raw: read_adam_blob(io.BytesIO(raw)),
}


def read_checkpoint(path):
    """Returns (header, arrays, mlps, adams).

    A file that cannot be opened, a bad magic, version or section kind, a
    short read, or a header or section that does not parse raises DataError
    naming the path. A file cut exactly at a section boundary reads as a
    checkpoint without the later sections: the format records neither a
    section count nor a checksum.
    """
    tables: dict[int, dict] = {kind: {} for kind in _SECTION_READERS}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open checkpoint ({exc.strerror})") from exc
    with fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file (magic {magic!r})")
        version, header_len = struct.unpack("<II", _read_exact(fh, 8, path, "the file header"))
        if version != _CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        raw_header = _read_exact(fh, header_len, path, "the JSON header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise DataError(f"{path}: checkpoint header does not parse ({exc})") from exc
        while True:
            head = fh.read(3)
            if not head:
                break
            if len(head) != 3:
                raise DataError(f"{path}: checkpoint truncated in a section head")
            kind, name_len = struct.unpack("<BH", head)
            if kind not in tables:
                raise DataError(f"{path}: unknown section kind {kind}")
            raw_name = _read_exact(fh, name_len, path, "a section name")
            (payload_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "a section length"))
            payload = _read_exact(fh, payload_len, path, f"section {raw_name!r}")
            try:
                tables[kind][raw_name.decode("utf-8")] = _SECTION_READERS[kind](payload)
            except (ValueError, IndexError, struct.error) as exc:
                raise DataError(f"{path}: section {raw_name!r} does not parse ({exc})") from exc
    return header, tables[_KIND_ARRAY], tables[_KIND_MLP], tables[_KIND_ADAM]


def save_model(path, model: Model, extra_header: dict | None = None,
               arrays: dict[str, np.ndarray] | None = None,
               adams: dict[str, AdamState] | None = None) -> None:
    """Persist a model (plus optional training state) to one checkpoint."""
    header = {
        "kind": "ncacf-model",
        "variant": {
            "family": model.variant.family,
            "coupling": model.variant.coupling,
            "interaction_kind": model.variant.interaction_kind,
            "combination": model.variant.combination,
            "q_hidden": model.variant.q_hidden,
            "output_activation": model.variant.output_activation,
        },
        "dims": {
            "num_users": model.num_users,
            "num_items": model.num_items,
            "embed_dim": model.embed_dim,
            "feature_dim": model.feature_dim,
        },
        "init_seed": model.init_seed,
        "extras": model.extras,
    }
    if extra_header:
        header.update(extra_header)
    all_arrays = {"W": model.embeddings.W}
    if model.embeddings.H is not None:
        all_arrays["H"] = model.embeddings.H
    if arrays:
        all_arrays.update(arrays)
    mlps = {}
    if model.extractor is not None:
        mlps["extractor"] = model.extractor
    if model.interaction is not None:
        mlps["interaction"] = model.interaction
    write_checkpoint(path, header, all_arrays, mlps, adams)


def load_model(path):
    """Returns (model, header, arrays, adams); arrays excludes W/H."""
    header, arrays, mlps, adams = read_checkpoint(path)
    if not isinstance(header, dict) or header.get("kind") != "ncacf-model":
        raise DataError(f"{path}: not a model checkpoint")
    try:
        variant = ModelVariant(**header["variant"])
        dims = {key: header["dims"][key]
                for key in ("num_users", "num_items", "embed_dim", "feature_dim")}
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: checkpoint header lacks a valid {exc}") from exc
    if "W" not in arrays:
        raise DataError(f"{path}: checkpoint has no W section")
    model = Model(
        variant=variant,
        **dims,
        embeddings=Embeddings(arrays.pop("W"), arrays.pop("H", None)),
        extractor=mlps.get("extractor"),
        interaction=mlps.get("interaction"),
        init_seed=header.get("init_seed", 0),
        extras=header.get("extras", {}),
    )
    return model, header, arrays, adams
