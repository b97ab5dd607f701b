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
    _descending_order,
    average_precision,
    evaluate,
    mean_ap,
    per_class_ap,
    topk_prf,
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
    ids = tuple(range(scores.shape[1])) if ids is None else tuple(ids)
    return ScoreMatrix(scores=scores, label_ids=ids), GroundTruthMatrix(y=truth, label_ids=ids)


def full_report(s, g, k_list=(1,)):
    """evaluate over every column, in column order."""
    return evaluate(s, g, LabelSplit(seen=s.label_ids, unseen=()), "GZSL", k_list)


class TestWorkedExample:
    def test_per_class_ap(self):
        s, g = mats()
        aps, skipped = per_class_ap(s, g)
        assert skipped == []
        for got, want in zip(aps, WORKED_APS):
            assert got == pytest.approx(float(want), abs=1e-12)
        # the published three-decimal values
        assert [round(a, 3) for a in aps] == [0.75, 0.75, 0.806, 0.639]

    def test_mean_ap_is_53_over_72(self):
        s, g = mats()
        assert mean_ap(s, g) == pytest.approx(53 / 72, abs=1e-12)

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

    aps = [brute_force_ap(scores[:, j], y[:, j]) for j in range(d)]
    assert mean_ap(s, g) == pytest.approx(np.mean(aps), abs=1e-10)

    k = int(rng.integers(1, d + 1))
    got = topk_prf(s, g, k)
    np.testing.assert_allclose(got, brute_force_prf(scores, y, k), atol=1e-10)

    # evaluate shares one AP list and one ranking across its metrics; each must equal its own function
    report = full_report(s, g, tuple(range(1, d + 1)))
    assert report.map == mean_ap(s, g)
    counts = y.sum(axis=0)
    assert report.wmap == pytest.approx(np.dot(counts, aps) / counts.sum(), abs=1e-10)
    assert report.prf_at_k == {j: topk_prf(s, g, j) for j in range(1, d + 1)}


def test_ap_tie_keeps_original_image_order():
    # scores tie; image 0 is negative and stays ranked first
    assert average_precision(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5
    assert average_precision(np.array([0.5, 0.5]), np.array([1, 0])) == 1.0


def test_ap_requires_positives():
    with pytest.raises(NoPositives):
        average_precision(np.array([0.1, 0.2]), np.array([0, 0]))


@pytest.mark.parametrize("relevance", [[2, 0, 0], [0.5, 0, 0.5]])
def test_ap_relevance_must_be_binary(relevance):
    # an AP over such relevance can leave [0, 1]: 2.0 for the first
    with pytest.raises(ValueError, match=r"^ground truth entries must be 0 or 1$"):
        average_precision(np.array([0.9, 0.5, 0.1]), np.array(relevance))


def test_monotone_transform_leaves_metrics_unchanged():
    rng = np.random.default_rng(0)
    scores = rng.normal(0, 1, (12, 5))
    y = rng.integers(0, 2, (12, 5))
    y[0] = 1
    s1, g = mats(scores, y, ids=range(5))
    s2, _ = mats(np.tanh(scores) * 3.0 + 1.0, y, ids=range(5))
    assert mean_ap(s1, g) == pytest.approx(mean_ap(s2, g), abs=1e-12)
    assert topk_prf(s1, g, 2) == topk_prf(s2, g, 2)


def test_image_permutation_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(0, 1, (10, 4))  # distinct with probability 1
    y = rng.integers(0, 2, (10, 4))
    y[0] = 1
    perm = rng.permutation(10)
    s1, g1 = mats(scores, y, ids=range(4))
    s2, g2 = mats(scores[perm], y[perm], ids=range(4))
    assert mean_ap(s1, g1) == pytest.approx(mean_ap(s2, g2), abs=1e-12)


def test_zero_positive_classes_are_skipped_not_counted():
    scores = WORKED_SCORES.copy()
    y = WORKED_TRUTH.copy()
    y[:, 2] = 0
    s, g = mats(scores, y)
    aps, skipped = per_class_ap(s, g)
    assert skipped == [2]
    assert aps[2] is None
    want = (WORKED_APS[0] + WORKED_APS[1] + WORKED_APS[3]) / 3
    assert mean_ap(s, g) == pytest.approx(float(want), abs=1e-12)


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
        assert topk_prf(s, g, 2) == (0.0, 0.0, 0.0)

    def test_k_bounds(self):
        s, g = mats(np.zeros((2, 3)), np.ones((2, 3), dtype=int))
        for k in (0, 4):
            with pytest.raises(KOutOfRange):
                topk_prf(s, g, k)

    def test_prf_hand_case(self):
        # one image, top-2 of [9, 8, 1], truth {0, 2}: TP=1, pred=2, pos=2
        s = ScoreMatrix(scores=np.array([[9.0, 8.0, 1.0]]), label_ids=(0, 1, 2))
        g = GroundTruthMatrix(y=np.array([[1, 0, 1]]), label_ids=(0, 1, 2))
        p, r, f = topk_prf(s, g, 2)
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
            assert report.ap == [average_precision(s.scores[:, c], g.y[:, c]) for c in cols]

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
        with pytest.raises(EmptyTaskVocabulary):
            evaluate(s, g3, self.split, "ZSL", (1,))

    def test_bad_mode_rejected(self):
        s, g = self.make()
        with pytest.raises(ValueError):
            evaluate(s, g, self.split, "zsl", (1,))

    @pytest.mark.parametrize("mode", ["ZSL", "GZSL"])
    def test_ground_truth_columns_may_be_permuted(self, mode):
        s, g = self.make()
        perm = [3, 0, 4, 2, 1]
        shuffled = GroundTruthMatrix(y=g.y[:, perm], label_ids=tuple(g.label_ids[c] for c in perm))
        want = evaluate(s, g, self.split, mode, (1, 2))
        assert evaluate(s, shuffled, self.split, mode, (1, 2)).to_json() == want.to_json()

    def test_row_counts_must_match(self):
        s, g = self.make()
        with pytest.raises(ShapeMismatch):
            evaluate(s, GroundTruthMatrix(y=g.y[1:], label_ids=g.label_ids), self.split, "GZSL", (1,))


def test_ground_truth_is_stored_boolean():
    y = np.array([[True, False]])
    assert GroundTruthMatrix(y=y, label_ids=(0, 1)).y is y  # a boolean matrix is kept, not copied
    _, g = mats()
    assert g.y.dtype == bool
    np.testing.assert_array_equal(g.y, WORKED_TRUTH == 1)


def test_ground_truth_must_be_binary():
    with pytest.raises(ValueError):
        GroundTruthMatrix(y=np.array([[0, 2]]), label_ids=(0, 1))
    for bad in (0.5, -1, np.nan):
        with pytest.raises(ValueError, match="0 or 1"):
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


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "1xn", "nx1", "distinct"]))
@settings(max_examples=200, deadline=None)
def test_descending_order_is_the_stable_argsort(seed, form):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    shape = {None: None, "1xn": (1, n), "nx1": (n, 1), "distinct": (3, n)}[form]
    a = rng.permutation(np.arange(3 * n, dtype=float)).reshape(3, n) if form == "distinct" else tied_matrix(seed, shape)
    np.testing.assert_array_equal(_descending_order(a), np.argsort(-a, axis=-1, kind="stable"))


def test_descending_order_resolves_signed_zeros_and_nan_by_index():
    a = np.array([[-0.0, 0.0, np.nan, 1.0, -0.0, np.nan, 0.0], [np.nan, 1.0, np.nan, 2.0, np.nan, -3.0, 0.5]])
    np.testing.assert_array_equal(_descending_order(a), [[3, 0, 1, 4, 6, 2, 5], [3, 1, 6, 5, 0, 2, 4]])


def reference_ap(scores, relevance):
    """average_precision as one stable argsort per column computed it."""
    order = np.argsort(-scores, kind="stable")
    rel = relevance[order].astype(np.float64)
    precision_at = np.cumsum(rel) / np.arange(1, len(rel) + 1)
    return float((precision_at * rel).sum() / int(relevance.sum()))


def reference_per_class_ap(scores, y, label_ids):
    aps = [reference_ap(scores[:, c], y[:, c]) if y[:, c].any() else None for c in range(len(label_ids))]
    return aps, [lid for lid, ap in zip(label_ids, aps) if ap is None]


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
            m.setattr(metrics, "_per_class_ap", reference_per_class_ap)
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
