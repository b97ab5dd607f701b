"""Label vocabulary, tunable prompt context, and embedding-space retrieval."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .text_encoder import TextSurrogateParams, text_surrogate_encode


class UnknownLabel(KeyError):
    pass


class TopNOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class LabelSplit:
    """Disjoint seen / unseen label id lists; order is significant."""

    seen: tuple[int, ...]
    unseen: tuple[int, ...]

    def __post_init__(self):
        overlap = set(self.seen) & set(self.unseen)
        if overlap:
            raise ValueError(f"seen and unseen overlap: {sorted(overlap)}")

    @property
    def all_ids(self) -> tuple[int, ...]:
        return self.seen + self.unseen


def init_prompt(rng: np.random.Generator, length: int, token_width: int, trainable: bool = False) -> Tensor:
    """M x D_t trainable context rows standing in for the hand-written template words."""
    return ad.tensor(rng.normal(0.0, 0.02, (length, token_width)), requires_grad=trainable)


@dataclass
class LabelEmbeddingTable:
    """Unit-norm label embeddings, one row per label id, in label_ids order."""

    z: Tensor  # d x D_e
    label_ids: tuple[int, ...]
    provenance: str = "fixed"

    def __post_init__(self):
        if self.z.data.ndim != 2:
            raise ValueError(f"label table must be a matrix, got shape {self.z.shape}")
        if self.z.shape[0] != len(self.label_ids):
            raise ValueError(f"{self.z.shape[0]} rows for {len(self.label_ids)} label ids")

    def matrix(self) -> np.ndarray:
        return self.z.data


def build_label_table(
    split: LabelSplit,
    prompt: Tensor,
    surrogate: TextSurrogateParams,
    provenance: str = "fixed",
) -> LabelEmbeddingTable:
    """Encode every label through the frozen surrogate with the shared context.

    Rows follow split.seen then split.unseen, all encoded in one pass. The
    context tensor is shared across rows, so during prompt tuning its
    gradient accumulates from all labels.
    """
    try:
        tokens = surrogate.token_rows(split.all_ids)
    except KeyError as e:
        raise UnknownLabel(f"no token vector for label {e.args[0]}") from None
    z = text_surrogate_encode(prompt, tokens, surrogate)
    return LabelEmbeddingTable(z=z, label_ids=split.all_ids, provenance=provenance)


def retrieve(query_label: int, table: LabelEmbeddingTable, topn: int) -> list[int]:
    """Rank all other labels by cosine similarity to the query, descending.

    Ties break toward the lower row index; the query itself never appears.
    """
    d = len(table.label_ids)
    if not 1 <= topn < d:
        raise TopNOutOfRange(f"topn={topn} outside [1, {d - 1}]")
    if query_label not in table.label_ids:
        raise UnknownLabel(f"label {query_label} not in table")
    qi = table.label_ids.index(query_label)
    z = table.matrix()
    norms = np.linalg.norm(z, axis=1)
    sims = (z @ z[qi]) / (norms * norms[qi])
    sims[qi] = -np.inf
    order = np.argsort(-sims, kind="stable")
    return [table.label_ids[i] for i in order[:topn]]


def retrieval_accuracy(table: LabelEmbeddingTable, categories: dict[int, int], topn: int) -> float:
    """Fraction of retrieved slots sharing the query's major category.

    Micro-average over all query x topn slots, every table label queried.
    """
    for lid in table.label_ids:
        if lid not in categories:
            raise UnknownLabel(f"label {lid} missing from category map")
    hits = 0
    total = 0
    for lid in table.label_ids:
        want = categories[lid]
        for got in retrieve(lid, table, topn):
            hits += categories[got] == want
            total += 1
    return hits / total


def vocabulary_text(categories: dict[int, int]) -> str:
    """One "label_id<TAB>category_id" line per label."""
    return "".join(f"{lid}\t{categories[lid]}\n" for lid in sorted(categories))


def read_vocabulary(path: str | Path) -> dict[int, int]:
    """The category map of a vocabulary_text file; a label listed twice is a ValueError."""
    out: dict[int, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        lid, cat = (int(word) for word in line.split("\t"))
        if lid in out:
            raise ValueError(f"{Path(path).name} line {lineno} lists label {lid} twice")
        out[lid] = cat
    return out
