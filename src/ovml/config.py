"""Flat key=value run configuration.

One file drives every subcommand; unknown keys are rejected so typos
fail at parse time instead of silently running defaults. The keys are
the run-level fields of RunConfig plus every field of the SynthConfig,
ModelConfig and TrainConfig it owns, each with its one default. Every
run writes its fully resolved config next to its outputs, and that file
parses back into an identical RunConfig: a value whose key=value line
does not read back as the same value, such as a string holding `#` or a
line break, is refused.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .model import SCORE_CHUNK, ModelConfig
from .synth import SynthConfig
from .tensor_io import check_at_least, field_kinds, key_values_text, read_key_values
from .training import TrainConfig


class ConfigError(ValueError):
    pass


_TASKS = ("ZSL", "GZSL", "both")
# The largest array, in bytes, a config may make a command ask numpy for.
# Over it is a ConfigError naming the key that dominates, raised before
# anything is allocated. A constant rather than the host's free memory, so
# a config exits the same way on every machine; the README run's largest
# array is about 0.7 MB.
MAX_ARRAY_BYTES = 2**30


@dataclass
class RunConfig:
    """Field order is the order of config.resolved.txt."""

    seed: int = 0
    out_dir: str = "runs/out"
    dataset_dir: str = ""
    checkpoint: str = ""

    # world and dataset
    n_labels: int = 20
    seen_fraction: float = 0.8
    synth: SynthConfig = field(default_factory=SynthConfig)
    n_train: int = 600
    n_test: int = 200

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    # evaluation and retrieval
    task: str = "both"
    k_list: tuple[int, ...] = (3,)
    topn: int = 3

    # sweeps
    sweep_axis: str = "lambda_distill"
    sweep_values: tuple[str, ...] = ("0.0", "0.5", "1.0")
    sweep_seeds: tuple[int, ...] = ()  # empty: the one run seed

    def __post_init__(self):
        if min((self.seed, *self.sweep_seeds)) < 0:
            raise ConfigError(f"seeds cannot be negative, got {min((self.seed, *self.sweep_seeds))}")
        if self.task not in _TASKS:
            raise ConfigError(f"task must be one of {_TASKS}, got {self.task!r}")
        if not self.k_list or min(self.k_list) < 1:
            raise ConfigError(f"k_list must hold positive values, got {self.k_list}")
        check_at_least(self, 1, "n_labels", "n_train", "n_test")
        if not 0.0 < self.seen_fraction <= 1.0:
            raise ConfigError(f"seen_fraction {self.seen_fraction} outside (0, 1]")
        for key, value in _values(self).items():
            # a config file has no escape: `#` starts a comment, a line break ends the value, the
            # value's ends are stripped of blanks and quotes, and a tuple splits at blanks and commas
            try:
                back = read_key_values(key_values_text({key: value}), {key: _KINDS[key]}).get(key)
            except ValueError:
                back = None
            if back != value:
                raise ConfigError(f"{key}={value!r} does not read back from a config file")
        factors = max(self._array_factors(), key=lambda f: math.prod(f.values()))
        if 8 * math.prod(factors.values()) > MAX_ARRAY_BYTES:
            key, limit = max(factors, key=factors.get), MAX_ARRAY_BYTES // 2**30
            raise ConfigError(f"{key}={_values(self)[key]} needs an array over the {limit} GiB limit")

    def _array_factors(self) -> list[dict[str, int]]:
        """An estimate of the float64 arrays whose size the config sets, each as
        the keys whose factors multiply into its element count: a split's
        images, the label rows of a table build and their attention logits,
        the label table, a weight matrix, AdamW's flat buffer of every ViT and
        head weight, the surrogate's block weights, and one training batch's or
        scoring chunk's activations, attention logits and patch-label scores.
        """
        s, m = self.synth, self.model
        tokens = s.n_patches + 1  # an image's class token and patches
        labels = s.prompt_length + 1  # a label's prompt rows and token row
        rows = max(min(self.train.batch_size, self.n_train), SCORE_CHUNK)
        return [
            {"n_train": self.n_train, "channels": s.channels, "image_size": s.image_size**2},
            {"n_test": self.n_test, "channels": s.channels, "image_size": s.image_size**2},
            {"n_labels": self.n_labels, "prompt_length": labels, "token_width": s.token_width},
            {"n_labels": self.n_labels, "surrogate_heads": s.surrogate_heads, "prompt_length": labels**2},
            {"n_labels": self.n_labels, "embed_dim": s.embed_dim},
            {"token_width": s.token_width**2},
            {"depth": m.depth + 1, "width": 6 * m.width**2},  # the blocks, and the heads as about one more
            {"surrogate_depth": s.surrogate_depth, "token_width": 6 * s.token_width**2},
            {"batch_size": rows, "image_size": tokens, "width": m.width},
            {"batch_size": rows, "heads": m.heads, "image_size": tokens**2},
            {"batch_size": rows, "image_size": tokens, "n_labels": self.n_labels},
        ]

    def tasks(self) -> tuple[str, ...]:
        return ("ZSL", "GZSL") if self.task == "both" else (self.task,)

    def sweep_points(self) -> list[tuple[str, RunConfig]]:
        """(run name, config) per sweep value: the resolved text with the axis line set to the
        value, parsed like any config, so the key's kind converts the word and every check runs."""
        axis = self.sweep_axis
        if axis not in ("n_labels", "seen_fraction", "n_train", "n_test", *field_kinds(*_PARTS.values())):
            raise ConfigError(f"sweep_axis={axis} is not a world, sample, model or training key")
        if not self.sweep_values:
            raise ConfigError("sweep_values is empty: a sweep needs at least one value")
        points = []
        for word in self.sweep_values:
            point = parse_config_text(key_values_text({**_values(self), axis: word}))
            value = _values(point)[axis]
            points.append((f"{value:g}" if isinstance(value, float) else str(value), point))
        for what, runs in ((axis, [name for name, _ in points]), ("seed", self.sweep_seeds)):
            if len(set(runs)) < len(runs):
                raise ConfigError(f"a sweep runs each {what} once, got {' '.join(map(str, runs))}")
        return points


# The component dataclasses RunConfig owns, by field name.
_PARTS = {"synth": SynthConfig, "model": ModelConfig, "train": TrainConfig}
_KINDS = {k: v for k, v in field_kinds(RunConfig, *_PARTS.values()).items() if k not in _PARTS}


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config_text(path.read_text())


def parse_config_text(text: str) -> RunConfig:
    """Every key is validated here, the components' own checks included."""
    try:
        values = read_key_values(text, _KINDS)
        parts = {
            name: cls(**{k: values.pop(k) for k in field_kinds(cls) if k in values})
            for name, cls in _PARTS.items()
        }
        return RunConfig(**values, **parts)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _values(cfg: RunConfig) -> dict[str, object]:
    """Every key's value, in config.resolved.txt order."""
    values: dict[str, object] = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        values.update(asdict(value) if f.name in _PARTS else {f.name: value})
    return values


def resolved_text(cfg: RunConfig) -> str:
    return key_values_text(_values(cfg))


def write_resolved(cfg: RunConfig, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.resolved.txt"
    path.write_text(resolved_text(cfg))
    return path
