"""Model variants: parameter containers, initialization, prediction paths,
and checkpoints.

A model holds four parameter groups: a user embedding matrix W (K x U), an
optional free item embedding matrix H (K x I), an optional content extractor
mapping item features (a float64 items x L array) to the embedding space,
and an interaction head that is either a plain dot product or a tower MLP
applied to the combined embeddings. Its sizes other than the item count are
read off those arrays.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .data import ConfidenceScheme, read_records, write_records
from .errors import ColdStartUnsupportedError, ConfigError, DataError
from .numerics import (AdamState, Layer, MLPParams, activation_backward,
                       apply_activation, map_blocks, mlp_backward, mlp_forward,
                       sum_rows)
from .rng import rng_for

log = logging.getLogger(__name__)

FAMILIES = ("wmf", "dcb", "mf_hybrid", "mf_uni", "ncacf", "ncf")
COUPLINGS = ("relaxed", "strict", "content_free")
COMBINATIONS = ("multiplication", "concatenation")


@dataclass(frozen=True)
class ModelVariant:
    """Which estimator to build; validated against the family constraints."""

    family: str
    coupling: str
    combination: str = "multiplication"
    q_hidden: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.coupling not in COUPLINGS:
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if self.combination not in COMBINATIONS:
            raise ConfigError(f"unknown combination {self.combination!r}")
        if self.family in ("wmf", "ncf") and self.coupling != "content_free":
            raise ConfigError(f"{self.family} requires coupling=content_free")
        if self.family in ("dcb", "mf_hybrid", "mf_uni") and self.coupling == "content_free":
            raise ConfigError(f"{self.family} requires relaxed or strict coupling")
        if self.family == "ncacf" and self.coupling == "content_free":
            raise ConfigError("ncacf without content is ncf: set family = ncf")
        if self.q_hidden < 0:
            raise ConfigError("q_hidden must be >= 0")

    @property
    def deep(self) -> bool:
        """The family fixes the interaction: ncacf and ncf score through a
        tower, the others through the dot product (mf_uni is ncacf's
        dot-product case)."""
        return self.family in ("ncacf", "ncf")

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
        for name in ("lambda_w", "lambda_h", "eta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        self.scheme()  # checks tau, alpha and epsilon
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


@dataclass
class Model:
    """A trainable/evaluable model instance. W (K x U) and H (K x I) hold one
    column per user and item; H is None for strict-coupling models, whose
    item vectors always come from the content extractor."""

    variant: ModelVariant
    num_items: int
    W: np.ndarray
    H: np.ndarray | None
    extractor: MLPParams | None
    interaction: MLPParams | None
    init_seed: int = 0

    @property
    def num_users(self) -> int:
        return self.W.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.W.shape[0]

    @property
    def feature_dim(self) -> int:  # the extractor's input width
        return 0 if self.extractor is None else self.extractor.in_dim


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
    if variant.deep and with_interaction:
        interaction = attach_tower(variant, embed_dim, seed)
    return Model(variant, num_items, W, H, extractor, interaction, init_seed=seed)


def attach_tower(variant: ModelVariant, embed_dim: int, seed: int) -> MLPParams:
    """Interaction tower: halving relu hidden layers, then a single-neuron
    bias-free sigmoid output layer whose weights start at one."""
    rng = rng_for(seed, "init.interaction")
    layers = []
    in_dim = combined_dim(embed_dim, variant.combination)
    for width in tower_widths(in_dim, variant.q_hidden):
        layers.append(_lecun_layer(rng, width, in_dim, "relu"))
        in_dim = width
    layers.append(Layer(np.ones((1, in_dim)), None, "sigmoid"))
    return MLPParams(layers)


def extract_item_embeddings(model: Model, features: np.ndarray,
                            items: np.ndarray | None = None) -> np.ndarray:
    """phi(x_i) for the given items (default: all), as a (K, n) matrix."""
    if model.extractor is None:
        raise ConfigError("model has no content extractor")
    rows = features if items is None else features[np.asarray(items)]
    out, _ = mlp_forward(model.extractor, rows)
    return out.T


def item_vectors(model: Model, items: np.ndarray, features: np.ndarray | None,
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
    return model.H[:, items]


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
    out, cache = mlp_forward(tower.tail, post.reshape(U * n, -1))
    return out.reshape(U, n), (W, item_vecs, (pre, post), cache)


def tower_grid_backward(tower: MLPParams, cache, grad_scores: np.ndarray):
    """Reverse pass of tower_grid_forward for the (U, n) score gradient,
    which it leaves unchanged.

    Returns (tower gradients keyed like tower.param_dict(), gW (K, U),
    gH (K, n)). A concatenation tower's first layer is reduced through the
    per-user and per-item sums G_u (U, width) and G_i (n, width) of its
    pre-activation gradient: grad A_w = G_u^T W^T, grad A_h = G_i^T H^T,
    gW = A_w^T G_u^T, gH = A_h^T G_i^T.
    """
    W, item_vecs, first_cache, rest_cache = cache
    U, n = grad_scores.shape
    # C order keeps G_u's sums in row order (see numerics.sum_rows).
    grad_scores = np.ascontiguousarray(grad_scores)
    if first_cache is None:
        grads, g_grid = mlp_backward(tower, rest_cache, grad_scores.reshape(-1, 1))
        g_grid = g_grid.reshape(U, n, -1)
        gW = np.einsum("unk,kn->ku", g_grid, item_vecs)
        gH = np.einsum("unk,ku->kn", g_grid, W)
        return grads, gW, gH
    first = tower.layers[0]
    _, post = first_cache
    grads: dict[str, np.ndarray] = {}
    if rest_cache is None:
        g_post = grad_scores[:, :, None]
    else:
        rest, g_post = mlp_backward(tower.tail, rest_cache, grad_scores.reshape(-1, 1))
        for name, arr in rest.items():  # "layer{i}.x" of the later layers
            i, part = name[len("layer"):].split(".")
            grads[f"layer{int(i) + 1}.{part}"] = arr
        g_post = g_post.reshape(U, n, -1)
    g_pre = activation_backward(first.activation, g_post, post,
                                owned=rest_cache is not None)
    G_u = sum_rows(g_pre)
    G_i = g_pre.sum(axis=0)
    k = W.shape[0]
    grads["layer0.weight"] = np.concatenate([G_u.T @ W.T, G_i.T @ item_vecs.T], axis=1)
    if first.bias is not None:
        grads["layer0.bias"] = G_u.sum(axis=0)
    gW = first.weights[:, :k].T @ G_u.T
    gH = first.weights[:, k:].T @ G_i.T
    return grads, gW, gH


# Floats in one grid of a tower user sub-block (1 MiB). Two sub-blocks run at
# once, one per core (numerics.map_blocks), each near its core's 2 MiB L2 on
# the 2-vCPU Xeon host it was tuned on. There, with two workers, 2^17 trained
# the perfbench ncacf_cold workload fastest (in-process `train` medians 0.82-0.86
# s, against 1.00 s at 2^16 and 0.98-0.99 s at 2^18). It is the one budget
# of a tower's grid: training batches, the objective's item slices and
# evaluation blocks all run the tower in these sub-blocks.
TOWER_BLOCK_FLOATS = 1 << 17


def block_units(floats_per_unit: int, budget: int) -> int:
    """Units (users of an evaluation block or of a tower sub-block) in one
    block whose temporaries take floats_per_unit floats per unit: as many as
    fit `budget`, and at least one."""
    return max(1, budget // floats_per_unit)


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
    columns: (len(users), n). A tower scores its user sub-blocks, each into
    its own rows, on up to two workers (numerics.map_blocks)."""
    W = model.W[:, users]
    if model.interaction is None:
        return W.T @ item_vecs
    scores = np.empty((W.shape[1], item_vecs.shape[1]))

    def score(block):
        scores[block] = tower_grid_forward(model.interaction, W[:, block], item_vecs,
                                           model.variant.combination)[0]

    for _ in map_blocks(score, tower_user_blocks(model, W.shape[1], item_vecs.shape[1])):
        pass
    return scores


# ---------------------------------------------------------------------------
# Checkpoints
#
# A record file (data.write_records) with magic b"NCKP". Its header holds the
# variant, the dims (the loader reads back only num_items; the other sizes
# are the arrays' own), init_seed, each MLP's layer activations, each Adam
# group's [step, lr, beta1, beta2, eps], the caller's run entries (`ncacf
# train` writes `prepared`, the digest of the snapshot it trained on, from
# which `evaluate` standardizes the features again, and `hyper`) and a
# `records` list naming the arrays in payload order: W, H,
# "<mlp>.layer<i>.weight"/".bias", "<group>.m.<param>"/"<group>.v.<param>"
# and, in a best.ckpt that train wrote, "validation.<name>". The optional
# `validation` header entry and those records hold the validation ranking of
# the saved model (evaluation.stored_result), which `evaluate` uses in place
# of ranking that bucket again.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"NCKP"
# A stored validation ranking is reused as long as the version reads the
# same, so any change to the numbers `evaluate` writes must bump it.
_CKPT_VERSION = 4
_MLPS = ("extractor", "interaction")


def save_model(path, model: Model, extra_header: dict | None = None,
               adams: dict[str, AdamState] | None = None,
               validation: dict | None = None) -> None:
    """Persist a model (plus optional training state) to one checkpoint.
    `validation`, the stored form of the model's validation ranking, goes
    into the header entry `validation` (its scalars) and the records
    "validation.<name>" (its arrays)."""
    named = {"W": model.W}
    if model.H is not None:
        named["H"] = model.H
    activations = {}
    for name in _MLPS:
        mlp = getattr(model, name)
        if mlp is not None:
            activations[name] = [layer.activation for layer in mlp.layers]
            named.update((f"{name}.{key}", arr) for key, arr in mlp.param_dict().items())
    adams = dict(sorted((adams or {}).items()))
    for group, state in adams.items():
        for moment in ("m", "v"):
            table = getattr(state, moment)
            named.update((f"{group}.{moment}.{key}", table[key]) for key in sorted(table))
    header = dict(extra_header or {})
    if validation is not None:
        header["validation"] = {key: value for key, value in validation.items()
                                if not isinstance(value, np.ndarray)}
        named.update((f"validation.{key}", value) for key, value in validation.items()
                     if isinstance(value, np.ndarray))
    header = {
        **header,
        "variant": asdict(model.variant),
        "dims": {key: getattr(model, key)
                 for key in ("num_users", "num_items", "embed_dim", "feature_dim")},
        "init_seed": model.init_seed,
        "mlps": activations,
        "adams": {group: [state.step, state.lr, state.beta1, state.beta2, state.eps]
                  for group, state in adams.items()},
        "records": list(named),
    }
    write_records(path, _CKPT_MAGIC, _CKPT_VERSION, header, list(named.values()))


def load_model(path):
    """Returns (model, header, adams, validation, digest) of the checkpoint
    save_model wrote; validation is the stored validation ranking, None when
    the checkpoint holds none, and the header no longer holds it; digest is
    the file's [byte length, CRC32], as read_records checked them."""
    header, records, digest = read_records(path, _CKPT_MAGIC, _CKPT_VERSION,
                                           "checkpoint", "`ncacf train`")
    validation = header.pop("validation", None)
    try:
        named = dict(zip(header["records"], records, strict=True))

        def pop_prefixed(prefix):
            return {key[len(prefix):]: named.pop(key)
                    for key in list(named) if key.startswith(prefix)}

        mlps = {name: MLPParams([Layer(named.pop(f"{name}.layer{i}.weight"),
                                       named.pop(f"{name}.layer{i}.bias", None), act)
                                 for i, act in enumerate(acts)])
                for name, acts in header["mlps"].items()}
        adams = {group: AdamState(step, lr, beta1, beta2, eps, pop_prefixed(f"{group}.m."),
                                  pop_prefixed(f"{group}.v."))
                 for group, (step, lr, beta1, beta2, eps) in header["adams"].items()}
        model = Model(
            variant=ModelVariant(**header["variant"]),
            num_items=header["dims"]["num_items"],
            W=named.pop("W"),
            H=named.pop("H", None),
            extractor=mlps.get("extractor"),
            interaction=mlps.get("interaction"),
            init_seed=header["init_seed"],
        )
        if validation is not None:
            validation = {**validation, **pop_prefixed("validation.")}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: checkpoint does not hold a valid model "
                        f"({type(exc).__name__}: {exc})") from exc
    except ConfigError as exc:  # a variant no longer built, such as content-free ncacf
        raise ConfigError(f"{path}: {exc}") from exc
    return model, header, adams, validation, digest
