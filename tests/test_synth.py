"""Generative-world oracles.

The strongest checks run at sigma=0, where every patch must be exactly a
label prototype or background and the teacher embedding must equal the
mean of the planted labels' embeddings.
"""

import re
import tracemalloc

import numpy as np
import pytest

from ovml.metrics import evaluate
from ovml.seeds import substream
from ovml.synth import (
    _BLOCK,
    DatasetCorrupt,
    InfeasibleConstraint,
    PoolTooSmall,
    SynthConfig,
    _choice_bounds,
    _choice_picks,
    _pick_split,
    build_world,
    oracle_scores,
    read_dataset,
    sample,
    write_dataset,
)
from ovml.tensor_io import directory_digest
from ovml.vit import patchify

from test_io import assert_read_once, assert_writable_aligned, count_reads, rewrite_after_hashing

CLEAN = SynthConfig(sigma=0.0)


def small_world(seed=0, sigma=0.0):
    return build_world(12, 0.75, seed, SynthConfig(sigma=sigma))


def test_world_regeneration_is_bit_identical():
    a = small_world(3)
    b = small_world(3)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.w_teacher, b.w_teacher)
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    for lid in a.split.all_ids:
        np.testing.assert_array_equal(a.surrogate.tokens[lid].data, b.surrogate.tokens[lid].data)
    assert a.split == b.split

    c = small_world(4)
    assert not np.array_equal(a.z, c.z)


def test_split_structure():
    w = build_world(20, 0.8, 0)
    assert len(w.split.seen) == 16
    assert len(w.split.unseen) == 4
    assert w.split.unseen == (16, 17, 18, 19)
    assert all(w.categories[lid] == lid % 4 for lid in range(20))
    # every unseen label keeps at least two seen category mates
    for lid in w.split.unseen:
        mates = [s for s in w.split.seen if w.categories[s] == w.categories[lid]]
        assert len(mates) >= 2


def test_split_infeasible_when_categories_too_thin():
    # 4 labels over 4 categories: no category can spare an unseen label
    with pytest.raises(InfeasibleConstraint):
        build_world(4, 0.5, 0, SynthConfig())


def _round_robin_split(d, seen_fraction, n_categories):
    """The split rule as a simulation: pass after pass over the categories,
    each takes its largest remaining id while it holds three or more."""
    by_cat = {}
    for lid in range(d):
        by_cat.setdefault(lid % n_categories, []).append(lid)
    n_unseen = d - int(round(d * seen_fraction))
    unseen = []
    while len(unseen) < n_unseen:
        took = False
        for cat in sorted(by_cat):
            if len(unseen) == n_unseen:
                break
            members = [lid for lid in by_cat[cat] if lid not in unseen]
            if len(members) >= 3:  # keep two seen for the pair
                unseen.append(members[-1])
                took = True
        if not took:
            raise InfeasibleConstraint(
                f"cannot place {n_unseen} unseen labels over {n_categories} categories of {d}"
            )
    return tuple(lid for lid in range(d) if lid not in unseen), tuple(sorted(unseen))


def test_pick_split_matches_the_round_robin_loop():
    def outcome(split_rule, *args):
        try:
            return split_rule(*args)
        except InfeasibleConstraint as e:
            return str(e)

    def closed_form(*args):
        split, categories = _pick_split(*args)
        assert categories == {lid: lid % args[2] for lid in range(args[0])}
        return split.seen, split.unseen

    infeasible = 0
    for d in range(1, 41):
        for n_categories in range(1, 9):
            for k in range(1, 21):
                args = (d, k / 20, n_categories)
                want = outcome(_round_robin_split, *args)
                assert outcome(closed_form, *args) == want, args
                infeasible += isinstance(want, str)
    assert 0 < infeasible < 40 * 8 * 20  # both outcomes are exercised


def _per_image_sample(world, n_images, label_pool, seed, stream="sample"):
    """`sample` as one image at a time: lay out the cells, paste the
    prototypes, add the noise and take the teacher from the image's own
    patches."""
    cfg = world.config
    pool = tuple(label_pool)
    rng = substream(seed, stream)
    grid = cfg.image_size // cfg.patch_size
    n_cells = grid * grid
    images = np.zeros((n_images, cfg.channels, cfg.image_size, cfg.image_size))
    teacher = np.zeros((n_images, cfg.embed_dim))
    positives = []
    for i in range(n_images):
        n_pos = int(rng.integers(1, cfg.max_labels + 1))
        pos = tuple(sorted(int(pool[j]) for j in rng.choice(len(pool), n_pos, replace=False)))
        cells = np.full(n_cells, -1, dtype=np.int64)  # -1 = background
        anchor = rng.choice(n_cells, n_pos, replace=False)
        cells[anchor] = pos
        rest = cells == -1
        choices = np.array(pos + (-1,), dtype=np.int64)
        cells[rest] = choices[rng.integers(0, len(choices), int(rest.sum()))]
        img = np.zeros((cfg.channels, cfg.image_size, cfg.image_size))
        for cell, lid in enumerate(cells):
            if lid == -1:
                continue
            r, c = divmod(cell, grid)
            img[
                :,
                r * cfg.patch_size:(r + 1) * cfg.patch_size,
                c * cfg.patch_size:(c + 1) * cfg.patch_size,
            ] = world.prototypes[world.split.all_ids.index(int(lid))]
        if cfg.background == "noise":
            bg = rng.normal(0.0, cfg.sigma, img.shape)
            img = np.where(img == 0.0, bg, img)
        if cfg.sigma > 0.0:
            img = img + rng.normal(0.0, cfg.sigma, img.shape)
        images[i] = img
        teacher[i] = patchify(img, cfg.patch_size).patches.data.mean(axis=0) @ world.w_teacher
        positives.append(pos)
    return images, teacher, positives


@pytest.mark.parametrize(
    "d, config, n_images, seed, pool",
    [
        (80, SynthConfig(), 2000, 0, "all"),
        (20, SynthConfig(), 600, 0, "seen"),
        (20, SynthConfig(), 600, 3, "seen"),
        (20, SynthConfig(background="noise"), 300, 0, "all"),
        (20, SynthConfig(background="noise", channels=3), 300, 3, "seen"),
        (20, SynthConfig(sigma=0.0), 300, 0, "seen"),
        (20, SynthConfig(sigma=0.0, background="noise"), 40, 0, "seen"),
        (20, SynthConfig(channels=3, image_size=16, max_labels=5), 300, 3, "all"),
        (20, SynthConfig(image_size=24, patch_size=6), 3000, 0, "all"),
        (20, SynthConfig(image_size=4, patch_size=4, max_labels=1), 40, 0, "seen"),  # one cell
        (12, SynthConfig(image_size=4, patch_size=1, embed_dim=1), 40, 0, "seen"),  # one-pixel patches
        *((20, SynthConfig(), n, 1, "seen") for n in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1)),
        (20, SynthConfig(image_size=8, patch_size=4, max_labels=4), 300, 2, "seen"),  # 4 positives fill 4 cells
        (20, SynthConfig(), 300, 2, 3),  # a pool of max_labels: Floyd's first bound is 0
    ],
    ids=[
        "80x2000", "20x600", "20x600-seed3", "noise", "noise-3ch", "sigma0", "sigma0-noise", "3ch-16px-5labels",
        "24px-6px-3000", "one-cell", "one-pixel-patches", "n0", "n1", "block-1", "block", "block+1",
        "all-cells-anchored", "pool-of-max-labels",
    ],
)
def test_sample_matches_the_per_image_loop(d, config, n_images, seed, pool):
    """`pool` is "all", "seen" or the number of seen labels it takes."""
    w = build_world(d, 0.8, seed, config)
    pool = w.split.all_ids if pool == "all" else w.split.seen if pool == "seen" else w.split.seen[:pool]
    images, teacher, positives = _per_image_sample(w, n_images, pool, seed, "test")
    ds = sample(w, n_images, pool, seed, "test")
    assert ds.images.tobytes() == images.tobytes()
    assert ds.teacher.tobytes() == teacher.tobytes()
    assert ds.positives == positives


def test_sample_keeps_negative_zero_pixels_at_sigma_zero():
    w = build_world(20, 0.8, 0, CLEAN)
    w.prototypes[w.split.all_ids.index(w.split.seen[0])][0, 0, 0] = -0.0
    images, _, _ = _per_image_sample(w, 50, w.split.seen, 0)
    assert np.signbit(images).any() and not images.all()
    assert sample(w, 50, w.split.seen, 0).images.tobytes() == images.tobytes()


@pytest.mark.parametrize("config", [SynthConfig(sigma=1e308)], ids=["overflowing-noise"])
def test_sample_fails_as_the_per_image_loop_does(config):
    w = build_world(20, 0.8, 0, config)
    with pytest.raises(Exception) as want:
        _per_image_sample(w, 50, w.split.seen, 0)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        sample(w, 50, w.split.seen, 0)


def test_config_refuses_more_labels_than_cells():
    # every positive needs an anchor cell of its own
    with pytest.raises(ValueError, match=r"^max_labels=3 exceeds the world's 1 patches$"):
        SynthConfig(image_size=4, patch_size=4, max_labels=3)
    assert SynthConfig(image_size=4, patch_size=2, max_labels=4).n_patches == 4


def _assert_choice_picks_match_numpy(n, k, seed):
    ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (ours, numpy):
        rng.integers(0, 7)  # leaves half of a 64-bit word buffered for the next 32-bit draw
    draws = iter(ours.integers(0, np.array(_choice_bounds(n, k), dtype=np.int64), endpoint=True).tolist())
    assert _choice_picks(n, k, draws) == numpy.choice(n, k, replace=False).tolist(), (n, k, seed)
    assert next(draws, None) is None  # every draw is used
    # both streams stand at the same place: the buffered half, then whole words
    assert ours.integers(0, 9, 3).tolist() == numpy.integers(0, 9, 3).tolist(), (n, k, seed)
    assert ours.random(2).tolist() == numpy.random(2).tolist(), (n, k, seed)


def test_choice_picks_match_numpy_choice_on_small_populations():
    # `sample` reproduces choice(replace=False) from one integers call: this pins
    # the draw order it relies on, Floyd's algorithm then a Fisher-Yates shuffle
    for n in range(1, 31):
        for k in range(1, n + 1):
            for seed in range(4):
                _assert_choice_picks_match_numpy(n, k, seed)


@pytest.mark.parametrize("n", [10001, 20000])
def test_choice_picks_match_numpy_choice_around_the_tail_shuffle(n):
    # above 10000 numpy shuffles the tail of range(n) once k exceeds n // 50
    for k in (1, n // 50 - 1, n // 50, n // 50 + 1, n // 50 + 2, n - 1, n):
        for seed in range(3):
            _assert_choice_picks_match_numpy(n, k, seed)


def test_ground_truth_matches_the_per_image_loop():
    w = build_world(80, 0.8, 0)
    ds = sample(w, 500, w.split.all_ids, 0)
    for label_ids in (None, w.split.seen, w.split.unseen, (3, 1000, 3, 7)):
        want_ids = label_ids or w.split.all_ids
        col = {lid: i for i, lid in enumerate(want_ids)}
        want = np.zeros((len(ds), len(want_ids)), dtype=np.int64)
        for i, pos in enumerate(ds.positives):
            for lid in pos:
                if lid in col:
                    want[i, col[lid]] = 1
        gt = ds.ground_truth(label_ids)
        assert gt.y.dtype == bool and gt.label_ids == tuple(want_ids)
        np.testing.assert_array_equal(gt.y, want)


def test_ground_truth_allocates_little_more_than_its_matrix():
    # eval-wide's 80 labels x 2000 images: the bool matrix is 0.16 MB, and the
    # bound leaves room for the index arrays but not for an int64 copy (1.28 MB)
    w = build_world(80, 0.8, 0)
    ds = sample(w, 2000, w.split.all_ids, 0, stream="sample.test")
    tracemalloc.start()
    try:
        ds.ground_truth()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_prototypes_invert_the_teacher_map():
    w = small_world(1)
    for row in range(w.n_labels):
        flat = w.prototypes[row].reshape(-1)
        np.testing.assert_allclose(flat @ w.w_teacher, w.z[row], atol=1e-6)


def test_infeasible_when_embedding_outranks_patch():
    # patch vectors have 4 entries; an 8-dim embedding cannot be hit
    cfg = SynthConfig(patch_size=2, image_size=12, embed_dim=8, sigma=0.0)
    with pytest.raises(InfeasibleConstraint):
        build_world(12, 0.75, 0, cfg)


def test_unseen_tokens_are_convex_combinations_of_seen_mates():
    w = small_world(2)
    for lid in w.split.unseen:
        mates = np.stack(
            [w.surrogate.tokens[s].data for s in w.split.seen if w.categories[s] == w.categories[lid]]
        )
        token = w.surrogate.tokens[lid].data
        # solve for combination weights over the mates; must be a
        # two-mate convex mix within the jitter construction
        coef, res, *_ = np.linalg.lstsq(mates.T, token, rcond=None)
        np.testing.assert_allclose(mates.T @ coef, token, atol=1e-9)
        assert coef.sum() == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_positive_counts_and_membership(self):
        w = small_world(0)
        ds = sample(w, 50, w.split.seen, seed=0)
        for pos in ds.positives:
            assert 1 <= len(pos) <= w.config.max_labels
            assert len(set(pos)) == len(pos)
            assert set(pos) <= set(w.split.seen)

    def test_same_stream_reproduces_different_stream_decorrelates(self):
        w = small_world(0)
        a = sample(w, 5, w.split.seen, seed=7, stream="x")
        b = sample(w, 5, w.split.seen, seed=7, stream="x")
        c = sample(w, 5, w.split.seen, seed=7, stream="y")
        np.testing.assert_array_equal(a.images, b.images)
        assert a.positives == b.positives
        assert not np.array_equal(a.images, c.images)

    def test_pool_validation(self):
        w = small_world(0)
        with pytest.raises(PoolTooSmall):
            sample(w, 5, w.split.seen[:2], seed=0)  # pool < max_labels
        with pytest.raises(PoolTooSmall):
            sample(w, 5, (0, 1, 99), seed=0)

    def test_clean_patches_are_prototypes_of_planted_labels_only(self):
        w = small_world(0)
        ds = sample(w, 30, w.split.all_ids, seed=1)
        p = w.config.patch_size
        grid = w.config.image_size // p
        row = {lid: r for r, lid in enumerate(w.split.all_ids)}
        for i in range(len(ds)):
            seen_labels = set()
            for r in range(grid):
                for c in range(grid):
                    patch = ds.images[i][:, r * p:(r + 1) * p, c * p:(c + 1) * p]
                    if np.allclose(patch, 0.0, atol=1e-12):
                        continue
                    matches = [
                        lid
                        for lid in ds.positives[i]
                        if np.allclose(patch, w.prototypes[row[lid]], atol=1e-9)
                    ]
                    assert len(matches) == 1, "patch is not a planted prototype"
                    seen_labels.add(matches[0])
            assert seen_labels == set(ds.positives[i])  # every positive anchored

    def test_clean_teacher_is_mean_of_planted_embeddings(self):
        w = small_world(0)
        ds = sample(w, 20, w.split.all_ids, seed=2)
        p = w.config.patch_size
        grid = w.config.image_size // p
        row = {lid: r for r, lid in enumerate(w.split.all_ids)}
        for i in range(len(ds)):
            contribution = np.zeros(w.config.embed_dim)
            for r in range(grid):
                for c in range(grid):
                    patch = ds.images[i][:, r * p:(r + 1) * p, c * p:(c + 1) * p]
                    for lid in ds.positives[i]:
                        if np.allclose(patch, w.prototypes[row[lid]], atol=1e-9):
                            contribution += w.z[row[lid]]
                            break
            np.testing.assert_allclose(
                ds.teacher[i], contribution / grid**2, atol=1e-6
            )

    def test_noise_perturbs_teacher_through_pixels(self):
        w = small_world(0, sigma=0.2)
        ds = sample(w, 10, w.split.seen, seed=3)
        clean_rows = {lid: r for r, lid in enumerate(w.split.all_ids)}
        for i in range(3):
            ideal = np.mean(
                [w.z[clean_rows[lid]] for lid in ds.positives[i]], axis=0
            )
            assert not np.allclose(ds.teacher[i], ideal, atol=1e-9)


def test_oracle_scores_separate_positives_at_sigma_zero():
    for seed in range(3):
        w = build_world(12, 0.75, seed, CLEAN)
        ds = sample(w, 40, w.split.all_ids, seed, stream="t")
        sm = oracle_scores(ds, k=1)
        gt = ds.ground_truth()
        for i in range(len(ds)):
            y = gt.y[i].astype(bool)
            assert sm.scores[i][y].min() > sm.scores[i][~y].max()
        assert evaluate(sm, gt, w.split, "GZSL", (1,)).map == 1.0


def test_ground_truth_alignment_and_masking():
    w = small_world(0)
    ds = sample(w, 15, w.split.all_ids, seed=4)
    gt = ds.ground_truth()
    assert gt.label_ids == w.split.all_ids
    for i, pos in enumerate(ds.positives):
        marked = {gt.label_ids[j] for j in np.flatnonzero(gt.y[i])}
        assert marked == set(pos)
    only_unseen = ds.ground_truth(w.split.unseen)
    assert only_unseen.y.shape == (15, len(w.split.unseen))


class TestPersistence:
    def test_round_trip_and_stable_hash(self, tmp_path):
        w = small_world(5, sigma=0.1)
        ds = sample(w, 12, w.split.seen, seed=5)
        h1 = write_dataset(tmp_path / "a", ds)
        h2 = write_dataset(tmp_path / "b", ds)
        assert h1 == h2 == directory_digest(tmp_path / "a")

        back = read_dataset(tmp_path / "a")
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.teacher, ds.teacher)
        assert back.positives == ds.positives
        assert back.world.split == w.split
        np.testing.assert_array_equal(back.world.z, w.z)

    def test_read_parses_the_bytes_its_check_hashed(self, tmp_path, monkeypatch):
        # images.mkt1 rewritten, same shape and finite, after the check hashed it: the checked values load
        w = small_world(5, sigma=0.1)
        ds = sample(w, 6, w.split.seen, seed=5)
        write_dataset(tmp_path / "d", ds)
        rewrite_after_hashing(monkeypatch, tmp_path / "d" / "images.mkt1", ds.images + 1.0)
        opened = count_reads(monkeypatch)
        back = read_dataset(tmp_path / "d")
        np.testing.assert_array_equal(back.images, ds.images)
        assert_read_once(opened, tmp_path / "d")
        for array in (back.images, back.teacher):
            assert_writable_aligned(array)

    def test_corruption_detected(self, tmp_path):
        w = small_world(5)
        ds = sample(w, 6, w.split.seen, seed=5)
        write_dataset(tmp_path / "d", ds)
        target = tmp_path / "d" / "teacher.mkt1"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetCorrupt, match="teacher.mkt1"):
            read_dataset(tmp_path / "d")

    def test_missing_config_detected(self, tmp_path):
        with pytest.raises(DatasetCorrupt):
            read_dataset(tmp_path)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(image_size=10, patch_size=4)
    with pytest.raises(ValueError):
        SynthConfig(background="plaid")
    with pytest.raises(ValueError):
        build_world(12, 1.5, 0)
