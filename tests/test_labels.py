"""Label table, retrieval ranking, and category-agreement accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovml import autodiff as ad
from ovml.labels import (
    LabelEmbeddingTable,
    LabelSplit,
    TopNOutOfRange,
    UnknownLabel,
    build_label_table,
    init_prompt,
    read_vocabulary,
    retrieval_accuracy,
    retrieve,
    vocabulary_text,
)
from ovml.seeds import substream
from ovml.text_encoder import init_text_surrogate


def table_from(z, ids=None):
    ids = tuple(range(len(z))) if ids is None else tuple(ids)
    return LabelEmbeddingTable(z=ad.tensor(np.asarray(z, float)), label_ids=ids)


def test_split_rejects_overlap_and_orders_all_ids():
    with pytest.raises(ValueError):
        LabelSplit(seen=(0, 1, 2), unseen=(2, 3))
    s = LabelSplit(seen=(0, 2), unseen=(3, 1))
    assert s.all_ids == (0, 2, 3, 1)


def test_retrieve_orthonormal_ties_go_to_lowest_rows():
    t = table_from(np.eye(4), ids=(10, 11, 12, 13))
    # all non-query sims are exactly 0; stable order keeps row order
    assert retrieve(12, t, 2) == [10, 11]
    assert retrieve(10, t, 3) == [11, 12, 13]


def test_retrieve_duplicate_row_ranks_first():
    z = np.eye(4)
    z[3] = z[1]
    t = table_from(z)
    assert retrieve(1, t, 1) == [3]  # cosine exactly 1


def test_retrieve_never_includes_query_and_respects_bounds():
    t = table_from(np.eye(3))
    with pytest.raises(TopNOutOfRange):
        retrieve(0, t, 0)
    with pytest.raises(TopNOutOfRange):
        retrieve(0, t, 3)  # only 2 other labels exist
    with pytest.raises(UnknownLabel):
        retrieve(99, t, 1)


@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_retrieve_matches_brute_force_ranking(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 1, (d, 5))
    ids = tuple(range(100, 100 + d))
    t = table_from(z, ids)
    for qi, q in enumerate(ids):
        got = retrieve(q, t, d - 1)
        sims = z @ z[qi] / (np.linalg.norm(z, axis=1) * np.linalg.norm(z[qi]))
        want = [ids[i] for i in sorted(range(d), key=lambda i: (-sims[i], i)) if i != qi]
        assert got == want
        assert q not in got


class TestRetrievalAccuracy:
    def test_single_category_is_perfect(self):
        t = table_from(np.eye(4))
        assert retrieval_accuracy(t, {i: 0 for i in range(4)}, 2) == 1.0

    def test_all_distinct_categories_is_zero(self):
        t = table_from(np.eye(4))
        assert retrieval_accuracy(t, {i: i for i in range(4)}, 2) == 0.0

    def test_hand_counted_two_category_case(self):
        # orthonormal rows: every query retrieves the lowest-index others.
        # labels 0-2 in category 0, 3-5 in category 1, topn=2:
        # queries 0,1,2 hit twice each; 3,4,5 retrieve {0,1} and miss.
        t = table_from(np.eye(6))
        cats = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        assert retrieval_accuracy(t, cats, 2) == pytest.approx(6 / 12)

    def test_invariant_under_orthogonal_maps(self):
        rng = substream(0, "test.labels.orth")
        z = rng.normal(0, 1, (6, 6))
        q, _ = np.linalg.qr(rng.normal(0, 1, (6, 6)))
        cats = {i: i % 2 for i in range(6)}
        a = retrieval_accuracy(table_from(z), cats, 3)
        b = retrieval_accuracy(table_from(z @ q), cats, 3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_missing_category_rejected(self):
        t = table_from(np.eye(3))
        with pytest.raises(UnknownLabel):
            retrieval_accuracy(t, {0: 0, 1: 0}, 1)


def test_build_label_table_rows_follow_split_order():
    rng = substream(1, "test.labels.table")
    tokens = {i: rng.normal(0, 1, 8) for i in range(5)}
    tower = init_text_surrogate(rng, 8, 4, depth=1, heads=2, token_vectors=tokens)
    prompt = init_prompt(rng, 3, 8)
    split = LabelSplit(seen=(4, 0, 2), unseen=(3, 1))

    table = build_label_table(split, prompt, tower)
    assert table.label_ids == (4, 0, 2, 3, 1)
    assert table.z.shape == (5, 4)
    # each row is that label's standalone encoding
    from ovml.text_encoder import text_surrogate_encode

    for row, lid in enumerate(table.label_ids):
        want = text_surrogate_encode(prompt, tower.token_rows([lid]), tower)
        np.testing.assert_array_equal(table.z.data[row], want.data[0])
    assert table.label_ids.index(2) == 2
    with pytest.raises(UnknownLabel):
        retrieve(7, table, 1)


def test_table_row_count_must_match_ids():
    with pytest.raises(ValueError):
        LabelEmbeddingTable(z=ad.tensor(np.eye(3)), label_ids=(0, 1))


def test_vocabulary_round_trip(tmp_path):
    cats = {0: 0, 1: 3, 7: 1, 2: 2}
    path = tmp_path / "vocab.tsv"
    path.write_text(vocabulary_text(cats))
    assert read_vocabulary(path) == cats
