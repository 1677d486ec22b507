"""Experiment configuration: flat `key = value` INI files with one section
level, two bundled profiles (desk and paper-faithful), and a round-trippable
writer.

load_config merges four layers into one dict, each beating the ones before
it: the field defaults, the profile (the --profile flag, else the file's
[run] profile, else desk), the file, and the --seed and --output flags. It
builds Hyperparams and ExperimentConfig from that dict once each.

Relative paths resolve against the config file's directory; the run output
directory resolves against $NCACF_OUTPUT_ROOT when that is set.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace

from .data import write_text
from .errors import ConfigError
from .models import COMBINATIONS, Hyperparams, ModelVariant

OUTPUT_ROOT_ENV = "NCACF_OUTPUT_ROOT"

PROFILES = {  # field name -> value
    "desk": {},
    "paper-faithful": {
        "min_user_songs": 20,
        "min_item_users": 50,
        "embed_dim": 128,
        "hidden_width": 1024,
        "eta": 1e-4,
        "batch_items": 128,
        "max_epochs": 150,
        "pretrain_epochs": 100,
        "finetune_epochs": 100,
        "n_iters": 150,
        "top_k": 50,
    },
}


@dataclass
class ExperimentConfig:
    # [data]
    triplets: str = "triplets.tsv"
    features: str | None = "features.tsv"
    prepared: str = "prepared"
    min_user_songs: int = 5
    min_item_users: int = 5
    # [variant]
    family: str = "wmf"
    coupling: str = "content_free"
    combination: str = "multiplication"
    q_hidden: int = 2
    # [hyperparams]
    hyper: Hyperparams = field(default_factory=Hyperparams)
    # [split]
    split_mode: str = "cold"
    num_folds: int = 10
    val_fraction: float = 0.2
    fold: int = 0
    # [eval]
    top_k: int = 10
    # [sweep]
    grid_lambda_w: tuple[float, ...] = (0.1,)
    grid_lambda_h: tuple[float, ...] = (1.0,)
    # [synth]
    synth_users: int = 500
    synth_items: int = 400
    synth_k_true: int = 8
    synth_features: int = 20
    synth_noise: float = 0.1
    synth_density: float = 0.08
    # [run]
    seed: int = 42
    profile: str = "desk"
    output: str = "run"

    def variant(self) -> ModelVariant:
        variant = ModelVariant(self.family, self.coupling)
        if not variant.deep:
            # Tower settings are meaningless without a tower; normalize them
            # so configs and checkpoints compare cleanly.
            return variant
        return replace(variant, combination=self.combination, q_hidden=self.q_hidden)

    def validate(self) -> "ExperimentConfig":
        if self.combination not in COMBINATIONS:
            raise ConfigError(f"unknown combination {self.combination!r}")
        if self.split_mode not in ("cold", "warm"):
            raise ConfigError(f"split mode must be cold or warm, got {self.split_mode!r}")
        if self.min_user_songs < 1 or self.min_item_users < 1:
            raise ConfigError("min_user_songs and min_item_users must be >= 1")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if not (0 <= self.fold < self.num_folds):
            raise ConfigError(f"fold {self.fold} out of range for {self.num_folds} folds")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        variant = self.variant()  # raises ConfigError on inconsistent variant specs
        if variant.family == "mf_hybrid" and (self.hyper.n_iters < 1 or self.hyper.n_gd < 1):
            raise ConfigError("mf_hybrid needs n_iters >= 1 and n_gd >= 1")
        return self


_SECTIONS = {
    "data": ("triplets", "features", "prepared", "min_user_songs", "min_item_users"),
    "variant": ("family", "coupling", "combination", "q_hidden"),
    "hyperparams": tuple(f.name for f in fields(Hyperparams)),
    "split": ("split_mode", "num_folds", "val_fraction", "fold"),
    "eval": ("top_k",),
    "sweep": ("grid_lambda_w", "grid_lambda_h"),
    "synth": ("synth_users", "synth_items", "synth_k_true", "synth_features",
              "synth_noise", "synth_density"),
    "run": ("seed", "profile", "output"),
}

_INI_NAME = {
    "split_mode": "mode",
    "synth_users": "num_users",
    "synth_items": "num_items",
    "synth_k_true": "k_true",
    "synth_features": "num_features",
    "synth_noise": "noise",
    "synth_density": "density",
}


def _parse_value(name: str, raw: str, default):
    """A file value, parsed as the type of the field's default."""
    raw = raw.strip()
    if name in ("grid_lambda_w", "grid_lambda_h"):
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"{name}: expected comma-separated floats, got {raw!r}")
    if name == "features" and raw.lower() in ("", "none"):
        return None
    kind = type(default)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}")
    return raw


def load_config(path, profile: str | None = None, seed: int | None = None,
                output: str | None = None) -> ExperimentConfig:
    """Parse an INI config over the defaults and the profile; `profile`,
    `seed` and `output` are the flags (None when not given)."""
    # strict=False lets a later section block override earlier keys, which
    # keeps appended overrides diff-friendly.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       strict=False)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file {path!r} not found")

    raw: dict[str, str] = {}
    setting = "both"
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _SECTIONS[section]
        ini_to_field = {_INI_NAME.get(name, name): name for name in known}
        for key, value in parser.items(section):
            if (section, key) == ("eval", "setting"):
                setting = value
            elif key in ini_to_field:
                raw[ini_to_field[key]] = value
            else:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    chosen_profile = profile or raw.get("profile", "desk")
    if chosen_profile not in PROFILES:
        raise ConfigError(f"unknown profile {chosen_profile!r}")
    defaults = {f.name: f.default for cls in (Hyperparams, ExperimentConfig)
                for f in fields(cls) if f.name != "hyper"}
    flags = {"profile": chosen_profile, "seed": seed, "output": output}
    values = {**defaults, **PROFILES[chosen_profile],
              **{name: _parse_value(name, value, defaults[name])
                 for name, value in raw.items()},
              **{name: value for name, value in flags.items() if value is not None}}

    base = os.path.dirname(os.path.abspath(path))
    for name in ("triplets", "features", "prepared"):
        if values[name] is not None:
            values[name] = _resolve(values[name], base)
    values["output"] = _resolve(values["output"], os.environ.get(OUTPUT_ROOT_ENV, base))
    hyper = Hyperparams(**{name: values.pop(name) for name in _SECTIONS["hyperparams"]})
    cfg = ExperimentConfig(hyper=hyper, **values).validate()
    # [eval] setting is retired; perfbench's workload configs still write it.
    if setting not in ("both", cfg.split_mode):
        raise ConfigError("[eval] setting is retired: evaluate scores the [split] mode")
    return cfg


def _resolve(path: str, base: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)


def write_config(path, cfg: ExperimentConfig) -> None:
    """Emit a config file that load_config parses back to an equal object."""
    lines = []
    for section, names in _SECTIONS.items():
        lines.append(f"[{section}]")
        for name in names:
            value = getattr(cfg.hyper, name) if section == "hyperparams" \
                else getattr(cfg, name)
            key = _INI_NAME.get(name, name)
            if value is None:
                lines.append(f"{key} = none")
            elif isinstance(value, tuple):
                lines.append(f"{key} = " + ",".join(repr(v) for v in value))
            elif isinstance(value, float):
                lines.append(f"{key} = {value!r}")
            else:
                lines.append(f"{key} = {value}")
        lines.append("")
    write_text(path, "\n".join(lines))
