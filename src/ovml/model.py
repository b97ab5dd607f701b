"""Full scoring model: backbone + two-stream heads + tunable prompt,
bundled with the frozen text surrogate and label split it was built
against, plus checkpoint save/load.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import KOutOfRange, Tensor
from .heads import (
    HEAD_MODES,
    EmbeddingPair,
    ScoreMatrix,
    TwoStreamParams,
    init_two_stream,
    score,
    two_stream,
)
from .labels import LabelEmbeddingTable, LabelSplit, build_label_table, init_prompt, read_vocabulary, vocabulary_text
from .seeds import substream
from .synth import SynthWorld
from .tensor_io import check_at_least, field_kinds, key_values_text, load_checkpoint, read_key_values, save_checkpoint
from .text_encoder import TextSurrogateParams
from .vit import VitParams, check_heads, init_vit, patchify, vit_forward


class BadCheckpoint(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    width: int = 16
    heads: int = 2
    depth: int = 2
    k: int = 3
    head_mode: str = "both"

    def __post_init__(self):
        check_at_least(self, 1, "width", "k")
        check_at_least(self, 0, "depth")
        check_heads(self.width, self.heads)
        if self.head_mode not in HEAD_MODES:
            raise ValueError(f"head mode must be one of {HEAD_MODES}, got {self.head_mode!r}")


@dataclass
class Model:
    vit: VitParams
    streams: TwoStreamParams
    prompt: Tensor  # M x D_t context
    surrogate: TextSurrogateParams
    split: LabelSplit
    categories: dict[int, int]
    config: ModelConfig
    patch_size: int

    def named_params(self) -> dict[str, Tensor]:
        out = self.vit.named("vit")
        out.update(self.streams.named("heads"))
        out["prompt.context"] = self.prompt
        return out


def init_model(seed: int, world: SynthWorld, config: ModelConfig | None = None) -> Model:
    """A freshly initialised model for `world`; KOutOfRange when `config.k`
    exceeds the world's patch count, before any weight is drawn."""
    config = config or ModelConfig()
    wc = world.config
    if config.k > wc.n_patches:
        raise KOutOfRange(f"k={config.k} exceeds the world's {wc.n_patches} patches")
    return Model(
        vit=init_vit(
            substream(seed, "model.vit"),
            patch_len=wc.patch_len,
            n_patches=wc.n_patches,
            width=config.width,
            heads=config.heads,
            depth=config.depth,
        ),
        streams=init_two_stream(substream(seed, "model.heads"), config.width, wc.embed_dim),
        prompt=init_prompt(
            substream(seed, "model.prompt"), wc.prompt_length, wc.token_width, trainable=True
        ),
        surrogate=world.surrogate,
        split=world.split,
        categories=dict(world.categories),
        config=config,
        patch_size=wc.patch_size,
    )


def encode(model: Model, images: np.ndarray) -> EmbeddingPair:
    """A (C, H, W) image or (B, C, H, W) batch -> (global, per-patch)
    embeddings, one graph for the whole batch; differentiable end to end.
    """
    return two_stream(vit_forward(patchify(images, model.patch_size), model.vit), model.streams)


def live_table(model: Model, provenance: str = "prompt") -> LabelEmbeddingTable:
    """Label table regenerated through the surrogate; gradients reach the
    prompt context, so use this inside prompt-tuning steps.
    """
    return build_label_table(model.split, model.prompt, model.surrogate, provenance=provenance)


def fixed_table(model: Model, provenance: str = "fixed") -> LabelEmbeddingTable:
    """A constant snapshot of the current table; graphs built against it
    never touch the surrogate.
    """
    with ad.no_grad():
        return live_table(model, provenance)


def score_image(model: Model, emb: EmbeddingPair, table: LabelEmbeddingTable) -> Tensor:
    """B x d scores of a batch's embeddings under the model's k and head mode."""
    return score(emb, table, k=model.config.k, heads=model.config.head_mode)


# Images per forward-only pass (embed_batch, score_batch): bounds peak
# memory whatever the number of images asked for.
SCORE_CHUNK = 16


def embed_batch(model: Model, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant (global B x D_e, per-patch B x N x D_e) embeddings of a
    batch, SCORE_CHUNK images per forward pass; no graph is recorded. An
    image's embeddings are the same bits in any chunking.
    """
    e_cls, e_patch = [], []
    with ad.no_grad():
        for start in range(0, images.shape[0], SCORE_CHUNK):
            emb = encode(model, images[start:start + SCORE_CHUNK])
            e_cls.append(emb.e_cls.data)
            e_patch.append(emb.e_patch.data.reshape(emb.e_cls.shape[0], -1, emb.e_cls.shape[1]))
    return np.concatenate(e_cls), np.concatenate(e_patch)


def score_batch(model: Model, images: np.ndarray, table: LabelEmbeddingTable) -> ScoreMatrix:
    """Evaluation-only scoring, SCORE_CHUNK images per forward pass; no graph is recorded."""
    with ad.no_grad():
        rows = [
            score_image(model, encode(model, images[start:start + SCORE_CHUNK]), table).data
            for start in range(0, images.shape[0], SCORE_CHUNK)
        ]
    return ScoreMatrix(scores=np.concatenate(rows), label_ids=table.label_ids)


# --- checkpoints ---

_META = "meta.txt"
_VOCAB = "vocab.tsv"
_META_KINDS = {
    **field_kinds(ModelConfig),
    "patch_size": "int",
    "seen": "tuple[int, ...]",
    "unseen": "tuple[int, ...]",
    "table_ids": "tuple[int, ...]",
    "table_provenance": "str",
}


def save_model(directory: str | Path, model: Model, table: LabelEmbeddingTable) -> str:
    """Write the model and its label table as a sealed checkpoint; return its digest."""
    tensors = {name: t.data for name, t in model.named_params().items()}
    tensors["table.z"] = table.matrix()
    meta = {
        **asdict(model.config),
        "patch_size": model.patch_size,
        "seen": model.split.seen,
        "unseen": model.split.unseen,
        "table_ids": table.label_ids,
        "table_provenance": table.provenance,
    }
    texts = {_META: key_values_text(meta), _VOCAB: vocabulary_text(model.categories)}
    return save_checkpoint(directory, tensors, texts)


def _read_checkpoint(directory: str | Path):
    """Config, split, patch size, parameter tensors, label table and category map of a checkpoint,
    verified before parsing."""
    directory = Path(directory)
    try:
        tensors, texts = load_checkpoint(directory)
        meta = read_key_values(texts[_META], _META_KINDS, complete=True)
        config = ModelConfig(**{key: meta[key] for key in field_kinds(ModelConfig)})
        split = LabelSplit(seen=meta["seen"], unseen=meta["unseen"])
        table = LabelEmbeddingTable(ad.tensor(tensors.pop("table.z")), meta["table_ids"], meta["table_provenance"])
        norms = np.linalg.norm(table.matrix(), axis=1)
        for lid, norm in zip(table.label_ids, norms):
            if not abs(norm - 1.0) <= 1e-9:  # build_label_table's rows are unit-norm
                raise BadCheckpoint(f"table.z row of label {lid} has norm {norm:.6g}, not 1")
        categories = read_vocabulary(texts[_VOCAB], _VOCAB)
        listed = set()
        for lid in table.label_ids:
            if lid in listed:  # one label in two rows: retrieve would report it twice and another never
                raise BadCheckpoint(f"{_META} table_ids lists label {lid} twice")
            if lid not in categories:
                raise BadCheckpoint(f"{_VOCAB} lacks table label {lid}")
            listed.add(lid)
        return config, split, meta["patch_size"], tensors, table, categories
    except NotADirectoryError:
        raise  # a path that is not a directory is a usage problem, not corruption
    except KeyError as e:
        raise BadCheckpoint(f"{directory}: missing {e}") from None
    except (OSError, ValueError) as e:  # unparsable or non-finite files, a table off its ids
        raise BadCheckpoint(f"{directory}: {e}") from None


def load_table(directory: str | Path) -> tuple[LabelEmbeddingTable, dict[int, int]]:
    """Table + category map alone; enough for retrieval, no world needed."""
    *_, table, categories = _read_checkpoint(directory)
    return table, categories


def load_model(directory: str | Path, world: SynthWorld) -> tuple[Model, LabelEmbeddingTable]:
    """Rebuild a model around the world's surrogate and load saved weights."""
    config, saved_split, patch_size, tensors, table, _ = _read_checkpoint(directory)
    if saved_split != world.split:
        raise BadCheckpoint("checkpoint split disagrees with the dataset's world")
    if patch_size != world.config.patch_size:
        raise BadCheckpoint(f"checkpoint patch_size={patch_size} disagrees with the world's {world.config.patch_size}")
    try:
        model = init_model(seed=0, world=world, config=config)
    except KOutOfRange as e:  # the checkpoint's k, not a config value
        raise BadCheckpoint(f"checkpoint {e}") from None
    named = model.named_params()
    if set(named) != set(tensors):
        missing = set(named) ^ set(tensors)
        raise BadCheckpoint(f"parameter names disagree: {sorted(missing)[:5]}")
    for name, param in named.items():
        if param.shape != tensors[name].shape:
            raise BadCheckpoint(f"{name}: shape {tensors[name].shape} vs expected {param.shape}")
        param.data = tensors[name]
    return model, table
