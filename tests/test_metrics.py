"""Evaluation oracles.

The worked four-image example is hand-checked: per-class AP follows from
ranking each column and averaging precision at the positives, and the
four fractions 3/4, 3/4, 29/36, 23/36 mean to exactly 53/72.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovml import metrics
from ovml import model as om
from ovml.autodiff import KOutOfRange, ShapeMismatch
from ovml.heads import ScoreMatrix
from ovml.labels import LabelSplit
from ovml.metrics import (
    EmptyTaskVocabulary,
    GroundTruthMatrix,
    NoPositives,
    _column_aps,
    _prf,
    evaluate,
    write_report,
)
from ovml.synth import build_world, sample

# four images x four labels, with known per-class rankings
WORKED_SCORES = np.array(
    [
        [0.8, 0.4, 0.6, 0.7],
        [0.3, 0.6, 0.5, 0.2],
        [0.5, 0.8, 0.4, 0.6],
        [0.6, 0.1, 0.2, 0.4],
    ]
)
WORKED_TRUTH = np.array(
    [
        [1, 0, 1, 0],
        [1, 0, 0, 1],
        [0, 1, 1, 1],
        [0, 1, 1, 1],
    ]
)
WORKED_APS = [Fraction(3, 4), Fraction(3, 4), Fraction(29, 36), Fraction(23, 36)]


def mats(scores=WORKED_SCORES, truth=WORKED_TRUTH, ids=None):
    """Score and ground-truth matrices from a score array and a 0/1 truth array."""
    ids = tuple(range(scores.shape[1])) if ids is None else tuple(ids)
    return ScoreMatrix(scores=scores, label_ids=ids), GroundTruthMatrix(y=np.asarray(truth) == 1, label_ids=ids)


def full_report(s, g, k_list=(1,)):
    """evaluate over every column, in column order: GZSL over a split that holds every label as seen."""
    return evaluate(s, g, LabelSplit(seen=s.label_ids, unseen=()), "GZSL", k_list)


class TestWorkedExample:
    def test_per_class_ap(self):
        report = full_report(*mats())
        aps = report.ap
        assert report.skipped_classes == []
        for got, want in zip(aps, WORKED_APS):
            assert got == pytest.approx(float(want), abs=1e-12)
        # the published three-decimal values
        assert [round(a, 3) for a in aps] == [0.75, 0.75, 0.806, 0.639]

    def test_mean_ap_is_53_over_72(self):
        assert full_report(*mats()).map == pytest.approx(53 / 72, abs=1e-12)

    def test_weighted_map(self):
        s, g = mats()
        counts = WORKED_TRUTH.sum(axis=0)  # 2, 2, 3, 3
        want = sum(c * a for c, a in zip(counts, WORKED_APS)) / counts.sum()
        assert full_report(s, g).wmap == pytest.approx(float(want), abs=1e-12)


def brute_force_ap(scores, rel):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if rel[i]:
            hits += 1
            total += hits / rank
    return total / sum(rel)


def brute_force_prf(scores, y, k):
    tp = pred = pos = 0
    for i in range(scores.shape[0]):
        chosen = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))[:k]
        tp += sum(y[i, j] for j in chosen)
        pred += k
        pos += int(y[i].sum())
    p = tp / pred if pred else 0.0
    r = tp / pos if pos else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_matrices_match_loop_oracles(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 20))
    d = int(rng.integers(2, 10))
    scores = rng.normal(0, 1, (b, d))
    y = rng.integers(0, 2, (b, d))
    y[rng.integers(0, b), :] = 1  # every class evaluable
    s, g = mats(scores, y, ids=range(d))

    # evaluate shares one AP list and one ranking across its metrics; each must match its loop oracle
    report = full_report(s, g, tuple(range(1, d + 1)))
    aps = [brute_force_ap(scores[:, j], y[:, j]) for j in range(d)]
    assert report.map == pytest.approx(np.mean(aps), abs=1e-10)
    counts = y.sum(axis=0)
    assert report.wmap == pytest.approx(np.dot(counts, aps) / counts.sum(), abs=1e-10)
    for k in range(1, d + 1):
        np.testing.assert_allclose(report.prf_at_k[k], brute_force_prf(scores, y, k), atol=1e-10)


def test_ap_tie_keeps_original_image_order():
    # scores tie; image 0 is negative and stays ranked first
    tied = np.array([[0.5], [0.5]])
    assert full_report(*mats(tied, np.array([[0], [1]]))).ap == [0.5]
    assert full_report(*mats(tied, np.array([[1], [0]]))).ap == [1.0]


def test_ap_requires_positives():
    # every task column is skipped, so there is no mean to take
    s, g = mats(np.array([[0.1, 0.3], [0.2, 0.4]]), np.zeros((2, 2)))
    with pytest.raises(NoPositives, match="^no class has positives$"):
        full_report(s, g)


@pytest.mark.parametrize("relevance", [[2, 0, 0], [0.5, 0, 0.5], [1, 0, 0], [1.0, 0.0, 0.0]])
def test_ap_relevance_must_be_binary(relevance):
    # an AP over 2 or 0.5 relevance can leave [0, 1]; 0/1 numbers are refused as well, not cast
    relevance = np.array(relevance)[:, None]
    with pytest.raises(ValueError, match=rf"^ground truth must be a boolean matrix, got dtype {relevance.dtype}$"):
        GroundTruthMatrix(y=relevance, label_ids=(0,))


def test_monotone_transform_leaves_metrics_unchanged():
    rng = np.random.default_rng(0)
    scores = rng.normal(0, 1, (12, 5))
    y = rng.integers(0, 2, (12, 5))
    y[0] = 1
    s1, g = mats(scores, y, ids=range(5))
    s2, _ = mats(np.tanh(scores) * 3.0 + 1.0, y, ids=range(5))
    r1, r2 = full_report(s1, g, (2,)), full_report(s2, g, (2,))
    assert r1.map == pytest.approx(r2.map, abs=1e-12)
    assert r1.prf_at_k == r2.prf_at_k


def test_image_permutation_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(0, 1, (10, 4))  # distinct with probability 1
    y = rng.integers(0, 2, (10, 4))
    y[0] = 1
    perm = rng.permutation(10)
    s1, g1 = mats(scores, y, ids=range(4))
    s2, g2 = mats(scores[perm], y[perm], ids=range(4))
    assert full_report(s1, g1).map == pytest.approx(full_report(s2, g2).map, abs=1e-12)


def test_zero_positive_classes_are_skipped_not_counted():
    scores = WORKED_SCORES.copy()
    y = WORKED_TRUTH.copy()
    y[:, 2] = 0
    report = full_report(*mats(scores, y))
    assert report.skipped_classes == [2]
    assert report.ap[2] is None
    want = (WORKED_APS[0] + WORKED_APS[1] + WORKED_APS[3]) / 3
    assert report.map == pytest.approx(float(want), abs=1e-12)


def test_wmap_renormalizes_over_evaluable_classes():
    y = WORKED_TRUTH.copy()
    y[:, 0] = 0
    s, g = mats(WORKED_SCORES, y)
    counts = y.sum(axis=0)
    want = sum(counts[j] * WORKED_APS[j] for j in (1, 2, 3)) / counts.sum()
    assert full_report(s, g).wmap == pytest.approx(float(want), abs=1e-12)


class TestTopK:
    def test_ties_to_lower_label_index(self):
        # labels 0 and 2 tie for the second place; the only positive is label 2, so P=0 unless the tie went to it
        s, g = mats(np.array([[0.5, 0.7, 0.5]]), np.array([[0, 0, 1]]))
        assert full_report(s, g, (2,)).prf_at_k[2] == (0.0, 0.0, 0.0)

    def test_k_bounds(self):
        s, g = mats(np.zeros((2, 3)), np.ones((2, 3), dtype=int))
        for k in (0, 4):
            with pytest.raises(KOutOfRange):
                full_report(s, g, (k,))

    def test_prf_hand_case(self):
        # one image, top-2 of [9, 8, 1], truth {0, 2}: TP=1, pred=2, pos=2
        s = ScoreMatrix(scores=np.array([[9.0, 8.0, 1.0]]), label_ids=(0, 1, 2))
        g = GroundTruthMatrix(y=np.array([[True, False, True]]), label_ids=(0, 1, 2))
        p, r, f = full_report(s, g, (2,)).prf_at_k[2]
        assert (p, r) == (0.5, 0.5)
        assert f == pytest.approx(0.5)


class TestMaskTask:
    split = LabelSplit(seen=(0, 1, 2), unseen=(4, 3))

    def make(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(0, 1, (6, 5))
        y = rng.integers(0, 2, (6, 5))
        y[0] = 1
        return mats(scores, y, ids=(0, 1, 2, 3, 4))

    def test_zsl_keeps_unseen_in_split_order(self):
        s, g = self.make()
        # GZSL columns follow split order (seen then unseen), not input order
        for mode, cols in (("ZSL", [4, 3]), ("GZSL", [0, 1, 2, 4, 3])):
            report = evaluate(s, g, self.split, mode, (1,))
            assert report.label_ids == tuple(cols)
            assert report.ap == [reference_ap(s.scores[:, c], g.y[:, c]) for c in cols]

    def test_zsl_ignores_seen_column_poisoning(self):
        s, g = self.make()
        poisoned = s.scores.copy()
        poisoned[:, [0, 1, 2]] = 1e9
        sp = ScoreMatrix(scores=poisoned, label_ids=s.label_ids)
        a = evaluate(s, g, self.split, "ZSL", (1,))
        b = evaluate(sp, g, self.split, "ZSL", (1,))
        assert a.to_json() == b.to_json()

    def test_empty_vocabulary_rejected(self):
        s, g = self.make()
        with pytest.raises(EmptyTaskVocabulary):
            evaluate(s, g, LabelSplit(seen=(0, 1, 2, 3, 4), unseen=()), "ZSL", (1,))
        with pytest.raises(EmptyTaskVocabulary):
            evaluate(s, g, LabelSplit(seen=(0,), unseen=(9,)), "ZSL", (1,))
        # a label the ground truth lacks
        g3 = GroundTruthMatrix(y=g.y[:, :3], label_ids=(0, 1, 2))
        with pytest.raises(ShapeMismatch):
            evaluate(s, g3, self.split, "ZSL", (1,))

    def test_bad_mode_rejected(self):
        s, g = self.make()
        with pytest.raises(ValueError):
            evaluate(s, g, self.split, "zsl", (1,))

    @pytest.mark.parametrize("mode", ["ZSL", "GZSL"])
    def test_ground_truth_columns_in_another_order_are_refused(self, mode):
        s, g = self.make()
        perm = [3, 0, 4, 2, 1]
        shuffled = GroundTruthMatrix(y=g.y[:, perm], label_ids=tuple(g.label_ids[c] for c in perm))
        with pytest.raises(ShapeMismatch):
            evaluate(s, shuffled, self.split, mode, (1, 2))

    def test_row_counts_must_match(self):
        s, g = self.make()
        with pytest.raises(ShapeMismatch):
            evaluate(s, GroundTruthMatrix(y=g.y[1:], label_ids=g.label_ids), self.split, "GZSL", (1,))


def test_ground_truth_is_stored_boolean():
    y = np.array([[True, False]])
    assert GroundTruthMatrix(y=y, label_ids=(0, 1)).y is y  # a boolean matrix is kept, not copied


def test_ground_truth_must_be_binary():
    with pytest.raises(ValueError, match="boolean"):
        GroundTruthMatrix(y=np.array([[0, 2]]), label_ids=(0, 1))
    for bad in (0.5, -1, np.nan, 0.0):
        with pytest.raises(ValueError, match="boolean"):
            GroundTruthMatrix(y=np.array([[1.0, 0.0], [0.0, bad]]), label_ids=(0, 1))
    with pytest.raises(ShapeMismatch):
        GroundTruthMatrix(y=np.zeros((2, 3)), label_ids=(0, 1))


def test_report_round_trip(tmp_path):
    s, g = mats()
    split = LabelSplit(seen=(0, 1), unseen=(2, 3))
    rep = evaluate(s, g, split, "GZSL", k_list=(1, 2))
    payload = json.loads(rep.to_json())
    assert payload["task"] == "GZSL"
    assert payload["mAP"] == pytest.approx(53 / 72, abs=1e-12)
    assert set(payload["topk"]) == {"1", "2"}

    write_report(tmp_path / "rep", rep)
    txt = (tmp_path / "rep.txt").read_text()
    assert "mAP" in txt and txt.endswith("\n")
    # identical inputs emit identical bytes
    write_report(tmp_path / "rep2", evaluate(s, g, split, "GZSL", k_list=(1, 2)))
    assert (tmp_path / "rep.json").read_bytes() == (tmp_path / "rep2.json").read_bytes()


# The worked example's reports, byte for byte, as the reference implementation wrote them.
PINNED_REPORTS = {
    "ZSL": (
        '{\n  "WmAP": 0.7222222222222222,\n  "ap": [\n    0.8055555555555555,\n    0.6388888888888888\n  ],\n'
        '  "label_ids": [\n    2,\n    3\n  ],\n  "mAP": 0.7222222222222221,\n  "skipped_classes": [],\n'
        '  "task": "ZSL",\n  "topk": {\n    "1": {\n      "F1": 0.4,\n      "P": 0.5,\n'
        '      "R": 0.3333333333333333\n    },\n    "2": {\n      "F1": 0.8571428571428571,\n'
        '      "P": 0.75,\n      "R": 1.0\n    }\n  }\n}',
        "task     ZSL\nmAP      0.722222\nWmAP     0.722222\n"
        "K=1     P 0.500000  R 0.333333  F1 0.400000\nK=2     P 0.750000  R 1.000000  F1 0.857143\n"
        "skipped  none\nlabel    AP\n2        0.805556\n3        0.638889\n",
    ),
    "GZSL": (
        '{\n  "WmAP": 0.7333333333333332,\n  "ap": [\n    0.75,\n    0.75,\n    0.8055555555555555,\n'
        '    0.6388888888888888\n  ],\n  "label_ids": [\n    0,\n    1,\n    2,\n    3\n  ],\n'
        '  "mAP": 0.736111111111111,\n  "skipped_classes": [],\n  "task": "GZSL",\n  "topk": {\n'
        '    "1": {\n      "F1": 0.28571428571428575,\n      "P": 0.5,\n      "R": 0.2\n    },\n'
        '    "2": {\n      "F1": 0.4444444444444445,\n      "P": 0.5,\n      "R": 0.4\n    }\n  }\n}',
        "task     GZSL\nmAP      0.736111\nWmAP     0.733333\n"
        "K=1     P 0.500000  R 0.200000  F1 0.285714\nK=2     P 0.500000  R 0.400000  F1 0.444444\n"
        "skipped  none\nlabel    AP\n0        0.750000\n1        0.750000\n2        0.805556\n3        0.638889\n",
    ),
}


@pytest.mark.parametrize("mode", ["ZSL", "GZSL"])
def test_report_bytes_are_pinned(mode):
    s, g = mats()
    report = evaluate(s, g, LabelSplit(seen=(0, 1), unseen=(2, 3)), mode, k_list=(1, 2))
    assert (report.to_json(), report.to_text()) == PINNED_REPORTS[mode]


# Values that tie, differ only in the sign of zero, or do not order at all.
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5])


def tied_matrix(seed, shape=None):
    """Rounded normals with ±0.0, NaN and ±inf mixed in, so rows hold ties."""
    rng = np.random.default_rng(seed)
    b, d = shape or (int(rng.integers(1, 7)), int(rng.integers(1, 40)))
    a = np.round(rng.normal(0, 2, (b, d)), int(rng.integers(0, 3)))
    special = rng.random((b, d)) < rng.uniform(0, 0.5)
    a[special] = rng.choice(SPECIAL, int(special.sum()))
    return a


def reference_ap(scores, relevance):
    """One column's AP, ranked by one stable argsort."""
    order = np.argsort(-scores, kind="stable")
    rel = relevance[order].astype(np.float64)
    precision_at = np.cumsum(rel) / np.arange(1, len(rel) + 1)
    return float((precision_at * rel).sum() / int(relevance.sum()))


def reference_column_aps(scores, y):
    """_column_aps as one stable argsort, cumsum and sum per column."""
    return [reference_ap(scores[:, c], y[:, c]) if y[:, c].any() else None for c in range(scores.shape[1])]


def reference_topk_masks(scores, ks):
    b, d = scores.shape
    order = np.argsort(-scores, axis=1, kind="stable")
    masks = {}
    for k in map(int, ks):
        if not 1 <= k <= d:
            raise KOutOfRange(f"K={k} outside [1, {d}]")
        masks[k] = np.zeros((b, d), dtype=bool)
        masks[k][np.arange(b)[:, None], order[:, :k]] = True
    return masks


def report_bytes(s, g, split, k_lists):
    return [(r.to_json(), r.to_text()) for r in (evaluate(s, g, split, mode, ks) for mode, ks in k_lists.items())]


def assert_reports_match_reference(s, g, split, monkeypatch):
    widths = {"ZSL": len(split.unseen), "GZSL": len(split.all_ids)}
    for ks in ((1, 3, 5), None):
        k_lists = {mode: ks or (d,) for mode, d in widths.items() if ks is None or max(ks) <= d}
        got = report_bytes(s, g, split, k_lists)
        with monkeypatch.context() as m:
            m.setattr(metrics, "_column_aps", lambda scores, y, n_pos: reference_column_aps(scores, y))
            m.setattr(metrics, "_topk_masks", reference_topk_masks)
            assert got == report_bytes(s, g, split, k_lists)


@pytest.fixture(scope="module")
def wide():
    """The 80-label, 2000-image score matrix of a seeded untrained model."""
    world = build_world(80, 0.8, 0)
    test = sample(world, 2000, world.split.all_ids, 0, stream="sample.test")
    model = om.init_model(0, world)
    table = om.fixed_table(model)
    return om.score_batch(model, test.images, table), test.ground_truth(table.label_ids), world.split


def test_wide_reports_match_the_per_column_reference(wide, monkeypatch):
    assert_reports_match_reference(*wide, monkeypatch)


@pytest.mark.parametrize("seed", range(40))
def test_tied_reports_match_the_per_column_reference(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    b, d = int(rng.integers(2, 60)), int(rng.integers(6, 14))
    scores = tied_matrix(seed, (b, d))
    y = rng.integers(0, 2, (b, d))
    y[:, rng.random(d) < 0.2] = 0  # some classes skipped
    y[0, [0, -1]] = 1  # each task keeps a class with a positive
    s, g = mats(scores, y, ids=range(d))
    cut = int(rng.integers(1, d - 4))
    assert_reports_match_reference(s, g, LabelSplit(seen=s.label_ids[:cut], unseen=s.label_ids[cut:]), monkeypatch)


def relevance_with_edge_columns(rng, b, d):
    """Random 0/1 relevance whose first three columns hold no, one and every image as positive."""
    y = rng.random((b, d)) < rng.uniform(0.05, 0.6)
    y[:, 0] = False
    y[:, 1] = np.arange(b) == rng.integers(b)
    y[:, 2] = True
    return y


def assert_aps_match_reference(scores, y):
    want = reference_column_aps(scores, y)
    assert _column_aps(scores, y, np.count_nonzero(y, axis=0)) == want
    s, g = mats(scores, y.astype(int), ids=range(scores.shape[1]))
    assert full_report(s, g).ap == want


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "one column", "one image", "distinct"]))
@settings(max_examples=200, deadline=None)
def test_column_aps_equal_the_stable_argsort_reference(seed, form):
    # ties, +0.0/-0.0 pairs, NaN and ±inf down a column
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    shape = {None: None, "one column": (n, 1), "one image": (1, n), "distinct": (n, 3)}[form]
    a = rng.permutation(np.arange(3 * n, dtype=float)).reshape(n, 3) if form == "distinct" else tied_matrix(seed, shape)
    y = rng.random(a.shape) < 0.4
    y[rng.integers(a.shape[0])] = True
    assert_aps_match_reference(a, y)


@pytest.mark.parametrize("b, d", [(1, 3), (2, 3), (2, 7), (37, 20), (2000, 80)])
@pytest.mark.parametrize("values", ["distinct", "tied"])
def test_column_aps_with_no_one_or_every_positive(b, d, values):
    rng = np.random.default_rng(b * d)
    scores = rng.normal(0, 1, (b, d)) if values == "distinct" else tied_matrix(b + d, (b, d))
    assert_aps_match_reference(scores, relevance_with_edge_columns(rng, b, d))


def reference_mean_ap(aps, weights=None):
    """Mean AP over the classes with a positive, weighted by `weights` (one
    per column) when given: evaluate's mAP and WmAP arithmetic."""
    keep = [c for c, ap in enumerate(aps) if ap is not None]
    vals = np.array([aps[c] for c in keep])
    if weights is None:
        return float(vals.mean())
    w = weights[keep]
    return float((vals * w).sum() / w.sum())


@pytest.mark.parametrize("seed", range(30))
def test_means_and_skipped_classes_equal_the_per_class_reference(seed):
    # tied scores; a column with no positive, one with one, one with every image, and more skipped at random
    rng = np.random.default_rng(seed)
    b, d = int(rng.integers(1, 60)), int(rng.integers(3, 30))
    scores = tied_matrix(seed, (b, d))
    y = relevance_with_edge_columns(rng, b, d)
    y[:, 3:] &= rng.random(d - 3) >= 0.2
    ids = tuple(int(i) for i in rng.permutation(np.arange(100, 100 + 2 * d))[:d])
    report = full_report(*mats(scores, y.astype(int), ids=ids))
    aps = reference_column_aps(scores, y)
    assert report.skipped_classes == [lid for lid, ap in zip(ids, aps) if ap is None]
    assert report.map == reference_mean_ap(aps)
    assert report.wmap == reference_mean_ap(aps, y.sum(axis=0).astype(np.float64))


def test_signed_zeros_and_nan_rank_by_image_index():
    # column 0: +0.0 and -0.0 tie, so the positive at -0.0 (image 1) ranks third;
    # column 1: the positive at NaN (image 0) ranks last, behind the one at 0.5
    scores = np.array([[0.0, np.nan], [-0.0, 0.5], [1.0, 2.0]])
    y = np.array([[False, True], [True, True], [False, False]])
    want = [1 / 3, (1 / 2 + 2 / 3) / 2]
    assert _column_aps(scores, y, np.count_nonzero(y, axis=0)) == want == reference_column_aps(scores, y)


def test_untied_columns_rank_without_argsort(monkeypatch):
    # distinct scores at 2000 x 80 give no argsort a reason to run, in AP or in top-K
    rng = np.random.default_rng(5)
    scores = rng.normal(0, 1, (2000, 80))
    y = relevance_with_edge_columns(rng, 2000, 80)
    s, g = mats(scores, y.astype(int), ids=range(80))
    want = full_report(s, g, (1, 3, 80))
    assert want.ap == reference_column_aps(scores, y)

    def refuse(*args, **kwargs):
        raise AssertionError("np.argsort called on an untied matrix")

    monkeypatch.setattr(np, "argsort", refuse)
    assert full_report(s, g, (1, 3, 80)).to_json() == want.to_json()


@pytest.mark.parametrize("seed", range(5))
def test_prf_counts_equal_summed_loops(seed):
    rng = np.random.default_rng(seed)
    predicted, y = rng.random((2, 300, 40)) < rng.uniform(0, 0.5, (2, 1, 1))
    tp = sum(bool(p and t) for p, t in zip(predicted.flat, y.flat))
    n_pred, n_pos = sum(map(bool, predicted.flat)), sum(map(bool, y.flat))
    p, r = tp / n_pred, tp / n_pos
    assert _prf(predicted, y) == (p, r, 2 * p * r / (p + r))
    assert _prf(np.zeros_like(y), y) == (0.0, 0.0, 0.0)
    assert all(type(v) is float for v in _prf(predicted, y))
