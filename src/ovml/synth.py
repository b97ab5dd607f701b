"""Seeded synthetic world: labels with category structure, pixel
prototypes tied to label embeddings through a linear teacher, and image
sampling with known positives.

Construction guarantees that make end-to-end behavior checkable:
  - flatten(q_c) @ W_T reproduces the label embedding z_c within 1e-6,
    so a clean single-label image has a known teacher embedding;
  - unseen label tokens are convex combinations of two seen tokens from
    the same category, so generalizing to them is structurally possible;
  - everything derives from named substreams of one seed, so worlds and
    datasets regenerate bit-identically.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .heads import ScoreMatrix
from .labels import LabelSplit, build_label_table, init_prompt, vocabulary_text
from .metrics import GroundTruthMatrix
from .seeds import substream
from .tensor_io import (
    check_at_least, field_kinds, key_values_text, parse_tensor, read_key_values, read_sealed, tensor_bytes,
    write_sealed,
)
from .text_encoder import TextSurrogateParams, init_text_surrogate
from .vit import check_heads, patchify


class InfeasibleConstraint(ValueError):
    pass


class PoolTooSmall(ValueError):
    pass


class DatasetCorrupt(ValueError):
    pass


_BACKGROUNDS = ("zero", "noise")


@dataclass(frozen=True)
class SynthConfig:
    """Field order is the key order of config.resolved.txt and world/config.txt."""

    n_categories: int = 4
    max_labels: int = 3
    sigma: float = 0.1
    channels: int = 1
    image_size: int = 12
    patch_size: int = 4
    token_width: int = 16
    embed_dim: int = 8
    surrogate_depth: int = 1
    surrogate_heads: int = 2
    prompt_length: int = 4
    token_jitter: float = 0.25
    background: str = "zero"

    def __post_init__(self):
        check_at_least(
            self, 1, "n_categories", "max_labels", "channels", "image_size", "token_width", "embed_dim",
            "prompt_length",
        )
        check_at_least(self, 0, "surrogate_depth")
        check_at_least(self, 0.0, "sigma", "token_jitter")
        if self.patch_size < 1 or self.image_size % self.patch_size:
            raise ValueError(f"patch {self.patch_size} does not tile {self.image_size}")
        if self.max_labels > self.n_patches:  # every positive needs a cell of its own
            raise ValueError(f"max_labels={self.max_labels} exceeds the world's {self.n_patches} patches")
        check_heads(self.token_width, self.surrogate_heads, "token_width", "surrogate_heads")
        if self.background not in _BACKGROUNDS:
            raise ValueError(f"background must be one of {_BACKGROUNDS}")

    @property
    def patch_len(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2


@dataclass
class SynthWorld:
    config: SynthConfig
    seed: int
    seen_fraction: float
    split: LabelSplit
    categories: dict[int, int]            # label id -> category id
    surrogate: TextSurrogateParams        # holds the label tokens
    z: np.ndarray                         # d x D_e, rows in split order
    w_teacher: np.ndarray                 # (P^2 C) x D_e
    prototypes: np.ndarray                # d x C x P x P, rows in split order

    @property
    def n_labels(self) -> int:
        return len(self.split.all_ids)


def _pick_split(d: int, seen_fraction: float, n_categories: int) -> tuple[LabelSplit, dict[int, int]]:
    """Label `lid` falls in category `lid % n_categories`. Unseen labels are
    taken in round-robin passes from the back of each category, never
    leaving one with fewer than two seen labels (the convex construction
    needs a pair). In closed form: the candidates are the ids with two
    smaller ids in their category, `lid >= 2 * n_categories`; pass r holds
    those with r larger ids in their category, `(d - 1 - lid) // n_categories`,
    in category order; the first `n_unseen` candidates in that order are unseen.
    """
    if not 0.0 < seen_fraction <= 1.0:
        raise ValueError(f"seen fraction {seen_fraction} outside (0, 1]")
    n_unseen = d - int(round(d * seen_fraction))
    candidates = sorted(
        range(2 * n_categories, d), key=lambda lid: ((d - 1 - lid) // n_categories, lid % n_categories)
    )
    if len(candidates) < n_unseen:
        raise InfeasibleConstraint(
            f"cannot place {n_unseen} unseen labels over {n_categories} categories of {d}"
        )
    unseen = set(candidates[:n_unseen])
    seen = tuple(lid for lid in range(d) if lid not in unseen)
    categories = {lid: lid % n_categories for lid in range(d)}
    return LabelSplit(seen=seen, unseen=tuple(sorted(unseen))), categories


def build_world(d: int, seen_fraction: float, seed: int, config: SynthConfig | None = None) -> SynthWorld:
    """Deterministically construct the full generative world for one seed."""
    config = config or SynthConfig()
    split, categories = _pick_split(d, seen_fraction, config.n_categories)

    rng_tok = substream(seed, "world.tokens")
    centroids = rng_tok.normal(0.0, 1.0, (config.n_categories, config.token_width))
    tokens: dict[int, np.ndarray] = {}
    for lid in split.seen:
        tokens[lid] = centroids[categories[lid]] + config.token_jitter * rng_tok.normal(
            0.0, 1.0, config.token_width
        )
    rng_mix = substream(seed, "world.unseen")
    for lid in split.unseen:
        mates = [s for s in split.seen if categories[s] == categories[lid]]
        a, b = rng_mix.choice(len(mates), 2, replace=False)
        alpha = rng_mix.uniform(0.3, 0.7)
        tokens[lid] = alpha * tokens[mates[a]] + (1.0 - alpha) * tokens[mates[b]]

    surrogate = init_text_surrogate(
        substream(seed, "world.surrogate"),
        token_width=config.token_width,
        embed_dim=config.embed_dim,
        depth=config.surrogate_depth,
        heads=config.surrogate_heads,
        token_vectors=tokens,
    )
    prompt = init_prompt(
        substream(seed, "world.prompt"), config.prompt_length, config.token_width, trainable=False
    )
    z = build_label_table(split, prompt, surrogate).matrix()

    rng_teacher = substream(seed, "world.teacher")
    w_teacher = rng_teacher.normal(0.0, 1.0 / np.sqrt(config.patch_len), (config.patch_len, config.embed_dim))
    if np.linalg.matrix_rank(w_teacher) < config.embed_dim:
        raise InfeasibleConstraint(
            f"teacher map rank below embedding dim {config.embed_dim}"
        )

    prototypes = np.empty((len(z), config.channels, config.patch_size, config.patch_size))
    for row, lid in enumerate(split.all_ids):
        flat, *_ = np.linalg.lstsq(w_teacher.T, z[row], rcond=None)
        residual = float(np.abs(flat @ w_teacher - z[row]).max())
        if residual > 1e-6:
            raise InfeasibleConstraint(f"prototype residual {residual:.3e} for label {lid}")
        prototypes[row] = flat.reshape(prototypes.shape[1:])

    return SynthWorld(
        config=config,
        seed=seed,
        seen_fraction=seen_fraction,
        split=split,
        categories=categories,
        surrogate=surrogate,
        z=z,
        w_teacher=w_teacher,
        prototypes=prototypes,
    )


@dataclass
class Dataset:
    images: np.ndarray                  # B x C x H x W
    teacher: np.ndarray                 # B x D_e
    positives: list[tuple[int, ...]]    # label ids per image
    world: SynthWorld

    def __len__(self) -> int:
        return self.images.shape[0]

    def ground_truth(self, label_ids: tuple[int, ...]) -> GroundTruthMatrix:
        """Boolean images x labels matrix of positives, columns in `label_ids` order."""
        col = {lid: i for i, lid in enumerate(label_ids)}
        counts = np.fromiter(map(len, self.positives), dtype=np.intp, count=len(self.positives))
        cols = np.fromiter(  # -1 for a positive that is not a column
            map(col.get, chain.from_iterable(self.positives), repeat(-1)), dtype=np.intp, count=int(counts.sum())
        )
        hit = cols >= 0
        y = np.zeros((len(self), len(label_ids)), dtype=bool)
        y[np.repeat(np.arange(len(self.positives)), counts)[hit], cols[hit]] = True
        return GroundTruthMatrix(y=y, label_ids=tuple(label_ids))


# images assembled per block in `sample`: bounds its temporaries at a
# block's images, whatever the dataset's size
_BLOCK = 256


def _choice_bounds(n: int, k: int) -> list[int]:
    """The inclusive upper bounds of the draws `Generator.choice(n, k,
    replace=False)` makes, in its order: Floyd's j = n-k .. n-1, then the
    Fisher-Yates shuffle's i = k-1 .. 1 over the k picks. For n > 10000 and
    k > n // 50 numpy instead shuffles the tail of range(n): i = n-1 down to
    max(n-k, 1). A bound of 0 draws nothing."""
    if n > 10000 and k > n // 50:
        return list(range(n - 1, max(n - k, 1) - 1, -1))
    return [*range(n - k, n), *range(k - 1, 0, -1)]


def _choice_picks(n: int, k: int, draws) -> list[int]:
    """The k picks `Generator.choice(n, k, replace=False)` makes, from an
    iterator over the draws `_choice_bounds(n, k)` bounds; consumes just those."""
    # zip takes from its range first, so it stops without taking a draw too many
    if n > 10000 and k > n // 50:
        moved = {}  # position -> value, for the positions the tail shuffle swapped
        for i, j in zip(range(n - 1, max(n - k, 1) - 1, -1), draws):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(n - k, n)]
    picks, taken = [], set()
    for j, v in zip(range(n - k, n), draws):  # Floyd: a value already picked gives j
        v = j if v in taken else v
        taken.add(v)
        picks.append(v)
    for i, j in zip(range(k - 1, 0, -1), draws):
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def sample(
    world: SynthWorld,
    n_images: int,
    label_pool: tuple[int, ...],
    seed: int,
    stream: str = "sample",
) -> Dataset:
    """Draw images with known positives from the world's prototypes.

    Each image holds 1..max_labels distinct pool labels; every positive
    occupies at least one patch cell, remaining cells draw uniformly from
    the positives plus background. The teacher embedding comes from the
    noisy pixels, not the clean layout. `stream` decorrelates draws that
    share a seed (train vs test split).

    Each image makes its draws in a fixed order: the number of positives,
    the positives, their anchor cells, the other cells, then the `noise`
    background and the sigma noise. The positives and anchors are the
    picks of `Generator.choice(..., replace=False)` and the other cells
    uniform over the positives plus background; one bounded `integers`
    call per image makes all of those draws, in that order, and
    `_choice_picks` turns them into picks as `choice` does. Pixels and
    teacher rows are assembled in bulk, one block of `_BLOCK` images at a
    time, with the same bits that assembling each image on its own gives.
    """
    cfg = world.config
    pool = tuple(label_pool)
    if len(pool) < cfg.max_labels:
        raise PoolTooSmall(f"pool of {len(pool)} cannot support {cfg.max_labels} positives")
    unknown = set(pool) - set(world.split.all_ids)
    if unknown:
        raise PoolTooSmall(f"pool labels {sorted(unknown)} not in the world")
    rng = substream(seed, stream)
    p, grid = cfg.patch_size, cfg.image_size // cfg.patch_size
    n_cells = grid * grid
    shape = (cfg.channels, cfg.image_size, cfg.image_size)
    # one prototype row per label, then the zero background row
    rows = {lid: row for row, lid in enumerate(world.split.all_ids)}
    background = len(rows)
    table = np.concatenate([world.prototypes, np.zeros((1, cfg.channels, p, p))])
    # per positive count, the bounds of an image's draws: its positives, anchor cells and other cells
    bounds = {
        n_pos: np.concatenate(
            [_choice_bounds(len(pool), n_pos), _choice_bounds(n_cells, n_pos), np.full(n_cells - n_pos, n_pos)]
        )
        for n_pos in range(1, cfg.max_labels + 1)
    }
    images = np.zeros((n_images,) + shape)
    teacher = np.zeros((n_images, cfg.embed_dim))
    positives: list[tuple[int, ...]] = []
    for lo in range(0, n_images, _BLOCK):
        hi = min(lo + _BLOCK, n_images)
        layout = []  # per image, the table row of each cell
        bg = np.empty((hi - lo,) + shape) if cfg.background == "noise" else None
        for i in range(lo, hi):
            n_pos = int(rng.integers(1, cfg.max_labels + 1))
            draws = iter(rng.integers(0, bounds[n_pos], endpoint=True).tolist())
            pos = tuple(sorted(int(pool[j]) for j in _choice_picks(len(pool), n_pos, draws)))
            cells = [background] * n_cells
            for cell, lid in zip(_choice_picks(n_cells, n_pos, draws), pos):
                cells[cell] = rows[lid]
            rest = [cell for cell, row in enumerate(cells) if row == background]
            choices = [rows[lid] for lid in pos] + [background]
            for cell, k in zip(rest, draws):
                cells[cell] = choices[k]
            layout.append(cells)
            if bg is not None:
                bg[i - lo] = rng.normal(0.0, cfg.sigma, shape)
            if cfg.sigma > 0.0:
                images[i] = rng.normal(0.0, cfg.sigma, shape)
            positives.append(pos)
        clean = (
            table[np.array(layout, dtype=np.intp).reshape(hi - lo, grid, grid)]
            .transpose(0, 3, 1, 4, 2, 5)
            .reshape((hi - lo,) + shape)
        )
        if bg is not None:
            clean = np.where(clean == 0.0, bg, clean)
        if cfg.sigma > 0.0:
            images[lo:hi] += clean  # noise + clean has the bits of clean + noise
        else:
            images[lo:hi] = clean
        patches = patchify(images[lo:hi], p).patches.data.reshape(hi - lo, n_cells, cfg.patch_len)
        # one vector-matrix product per image: a single gemm would round differently
        teacher[lo:hi] = np.matmul(patches.mean(axis=1)[:, None, :], world.w_teacher)[:, 0]
    return Dataset(images=images, teacher=teacher, positives=positives, world=world)


def oracle_scores(dataset: Dataset, k: int = 1) -> ScoreMatrix:
    """Score against the true generative quantities: top-k mean over patch
    embeddings (via the teacher map) of similarity to each label's z row.
    With sigma=0 and k=1 every positive outranks every negative.
    """
    world = dataset.world
    sims = []
    for i in range(len(dataset)):
        patches = patchify(dataset.images[i], world.config.patch_size).patches.data
        u = patches @ world.w_teacher  # N x D_e
        s = u @ world.z.T              # N x d
        top = -np.sort(-s, axis=0)[:k].mean(axis=0)
        sims.append(top)
    return ScoreMatrix(scores=np.stack(sims), label_ids=world.split.all_ids)


# --- dataset directory layout ---

_IMAGES = "images.mkt1"
_TEACHER = "teacher.mkt1"
_POSITIVES = "positives.txt"
_WORLD_CONFIG = "world/config.txt"
_WORLD_KINDS = {"seed": "int", "n_labels": "int", "seen_fraction": "float", **field_kinds(SynthConfig)}


# Every file of a split that the world fixes, with the bytes the world
# gives it: write_dataset writes them, and read_dataset compares each with
# the world regenerated from world/config.txt.
_WORLD_FILES: dict[str, Callable[[SynthWorld], bytes]] = {
    "vocab.tsv": lambda world: vocabulary_text(world.categories).encode(),
    "world/tokens.mkt1": lambda world: tensor_bytes(world.surrogate.token_rows(world.split.all_ids).data),
    "world/wt.mkt1": lambda world: tensor_bytes(world.w_teacher),
    "world/z.mkt1": lambda world: tensor_bytes(world.z),
    "world/prototypes.mkt1": lambda world: tensor_bytes(world.prototypes),
    "world/split.txt": lambda world: (
        "seen\t" + " ".join(str(x) for x in world.split.seen) + "\n"
        "unseen\t" + " ".join(str(x) for x in world.split.unseen) + "\n"
    ).encode(),
}


def write_dataset(directory: str | Path, dataset: Dataset) -> str:
    """Write the sealed directory layout and return its content hash."""
    world = dataset.world
    head = {"seed": world.seed, "n_labels": world.n_labels, "seen_fraction": world.seen_fraction}
    files = {
        _IMAGES: tensor_bytes(dataset.images),
        _TEACHER: tensor_bytes(dataset.teacher),
        _POSITIVES: "".join(" ".join(map(str, pos)) + "\n" for pos in dataset.positives).encode(),
        _WORLD_CONFIG: key_values_text({**head, **asdict(world.config)}).encode(),
    }
    return write_sealed(directory, {**files, **{rel: content(world) for rel, content in _WORLD_FILES.items()}})


def read_dataset(directory: str | Path) -> Dataset:
    """Read and verify the directory once, rebuild the world from its recorded seed and parse the
    samples; a file the world fixes that differs from the regenerated world's fails loudly. The
    recorded world is held to the size rule of run configs before anything is built from it."""
    directory = Path(directory)
    try:
        files = read_sealed(directory)[1]  # every file, read once and checked before any is parsed
        values = read_key_values(str(files[_WORLD_CONFIG], "utf-8"), _WORLD_KINDS, complete=True)
        seed, d, seen_fraction = values.pop("seed"), values.pop("n_labels"), values.pop("seen_fraction")
        synth = SynthConfig(**values)
        from .config import check_recorded_world  # config imports this module
        check_recorded_world(d, seen_fraction, synth)
        world = build_world(d, seen_fraction, seed, synth)

        for rel, content in _WORLD_FILES.items():
            if files[rel].tobytes() != content(world):  # as bytes: a memoryview compares byte by byte, 40x slower
                raise DatasetCorrupt(f"{rel} disagrees with the regenerated world")

        images = parse_tensor(files[_IMAGES], directory / _IMAGES)
        teacher = parse_tensor(files[_TEACHER], directory / _TEACHER)
        positives = [tuple(map(int, line.split())) for line in str(files[_POSITIVES], "utf-8").splitlines()]
        c = world.config
        want = (c.channels, c.image_size, c.image_size), (c.embed_dim,)
        if (images.shape[1:], teacher.shape[1:]) != want:
            raise DatasetCorrupt(
                f"image, teacher rows {images.shape[1:]}, {teacher.shape[1:]} do not fit the world's {want}"
            )
        if images.shape[0] != teacher.shape[0] or images.shape[0] != len(positives):
            raise DatasetCorrupt(
                f"row counts disagree: {images.shape[0]} images, "
                f"{teacher.shape[0]} teacher rows, {len(positives)} positive lines"
            )
        labels = set(world.split.all_ids)
        for line, ids in enumerate(positives, start=1):
            unknown = sorted(set(ids) - labels)
            if unknown:
                raise DatasetCorrupt(
                    f"{_POSITIVES} line {line}: label {unknown[0]} is not one of the world's {len(labels)}"
                )
            if len(set(ids)) < len(ids):
                raise DatasetCorrupt(f"{_POSITIVES} line {line} lists a label twice: {' '.join(map(str, ids))}")
    except NotADirectoryError:
        raise  # a path that is not a directory is a usage problem, not corruption
    except KeyError as e:
        raise DatasetCorrupt(f"{directory}: missing {e}") from None
    except (OSError, ValueError) as e:  # unparsable or inconsistent contents
        raise DatasetCorrupt(f"{directory}: {e}") from None
    return Dataset(images=images, teacher=teacher, positives=positives, world=world)
