"""Label vocabulary, tunable prompt context, and embedding-space retrieval."""

from __future__ import annotations

from dataclasses import dataclass

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


def retrieve_each(query_labels: tuple[int, ...], table: LabelEmbeddingTable, topn: int) -> list[list[int]]:
    """The `topn` labels nearest each query label by cosine similarity,
    descending, from one stable argsort of their similarity rows.

    Ties break toward the lower row index; a query never lists itself.
    """
    d = len(table.label_ids)
    if not 1 <= topn < d:
        raise TopNOutOfRange(f"topn={topn} outside [1, {d - 1}]")
    rows = []
    for lid in query_labels:
        if lid not in table.label_ids:
            raise UnknownLabel(f"label {lid} not in table")
        rows.append(table.label_ids.index(lid))
    z = table.matrix()
    norms = np.linalg.norm(z, axis=1)
    # one gemv per query: a z @ z.T gemm rounds some similarities differently
    sims = np.array([(z @ z[q]) / (norms * norms[q]) for q in rows])
    sims[np.arange(len(rows)), rows] = -np.inf
    order = np.argsort(-sims, axis=1, kind="stable")[:, :topn]
    return [[table.label_ids[i] for i in row] for row in order.tolist()]


def category_accuracy(neighbours: list[list[int]], table: LabelEmbeddingTable, categories: dict[int, int]) -> float:
    """Fraction of retrieved slots sharing the query's major category, where
    `neighbours` is `retrieve_each(table.label_ids, table, topn)`.

    Micro-average over all query x topn slots.
    """
    hits = sum(categories[got] == categories[lid] for lid, row in zip(table.label_ids, neighbours) for got in row)
    return hits / sum(map(len, neighbours))


def retrieval_accuracy(table: LabelEmbeddingTable, categories: dict[int, int], topn: int) -> float:
    """`category_accuracy` of every table label's retrieved labels."""
    for lid in table.label_ids:
        if lid not in categories:
            raise UnknownLabel(f"label {lid} missing from category map")
    return category_accuracy(retrieve_each(table.label_ids, table, topn), table, categories)


def vocabulary_text(categories: dict[int, int]) -> str:
    """One "label_id<TAB>category_id" line per label."""
    return "".join(f"{lid}\t{categories[lid]}\n" for lid in sorted(categories))


def read_vocabulary(text: str, name: str) -> dict[int, int]:
    """The category map of a vocabulary_text; a label listed twice is a ValueError naming the file `name`."""
    out: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        lid, cat = (int(word) for word in line.split("\t"))
        if lid in out:
            raise ValueError(f"{name} line {lineno} lists label {lid} twice")
        out[lid] = cat
    return out
