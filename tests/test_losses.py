"""Loss-level oracles: hand-summed hinge pairs, degenerate image policy,
and the distillation contract.
"""

import warnings

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.autodiff import ShapeMismatch
from ovml.losses import DegenerateImageWarning, batch_mean, distill_loss, ranking_loss
from ovml.seeds import substream


def mask(*rows):
    return np.array(rows, dtype=bool)


def test_ranking_hand_sum():
    # positive 0.6 against negatives 0.0 and 0.8:
    # (1 + 0.0 - 0.6) + (1 + 0.8 - 0.6) = 0.4 + 1.2
    s = ad.tensor([[0.6, 0.0, 0.8]])
    assert ranking_loss(s, mask([1, 0, 0])).item() == pytest.approx(1.6)


def test_ranking_two_positives():
    s = ad.tensor([[0.9, 0.1, 0.4]])
    # pairs: (0,2): 1+.4-.9=0.5; (1,2): 1+.4-.1=1.3
    assert ranking_loss(s, mask([1, 1, 0])).item() == pytest.approx(1.8)


def test_ranking_batch_is_mean_of_image_sums():
    s = ad.tensor([[0.6, 0.0, 0.8], [0.9, 0.1, 0.4]])
    assert ranking_loss(s, mask([1, 0, 0], [1, 1, 0])).item() == pytest.approx((1.6 + 1.8) / 2)


def test_ranking_invariant_under_common_shift():
    rng = substream(0, "test.losses.shift")
    s = rng.normal(0, 1, (2, 6))
    pos = mask([0, 1, 0, 0, 1, 0], [1, 0, 0, 1, 1, 0])
    a = ranking_loss(ad.tensor(s), pos).item()
    b = ranking_loss(ad.tensor(s + 3.7), pos).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_degenerate_images_warn_and_contribute_zero():
    with pytest.warns(DegenerateImageWarning):
        none = ranking_loss(ad.tensor([[0.2, 0.5]]), mask([0, 0]))
    with pytest.warns(DegenerateImageWarning):
        all_pos = ranking_loss(ad.tensor([[0.2, 0.5]]), mask([1, 1]))
    assert none.item() == 0.0
    assert all_pos.item() == 0.0


def test_degenerate_image_still_counted_in_batch_mean():
    # row 0: 1 + 1 - 0 = 2; row 1 has no positives and adds 0 over 2 images
    with pytest.warns(DegenerateImageWarning):
        loss = ranking_loss(ad.tensor([[0.0, 1.0], [0.3, 0.4]]), mask([1, 0], [0, 0]))
    assert loss.item() == pytest.approx(1.0)


def test_ranking_rejects_out_of_range_rows():
    # a positive mask must cover exactly the score row's labels
    with pytest.raises(ShapeMismatch):
        ranking_loss(ad.tensor([[0.1, 0.2]]), mask([0, 0, 1]))
    with pytest.raises(ShapeMismatch):
        ranking_loss(ad.tensor([[0.1, 0.2]]), mask([1, 0], [0, 1]))
    with pytest.raises(ShapeMismatch):
        ranking_loss(ad.tensor([[0.1, 0.2]]), np.array([[1, 0]]))  # 0/1 ints, not a mask
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateImageWarning)
        with pytest.raises(ShapeMismatch):  # the mask is refused before its row is judged degenerate
            ranking_loss(ad.tensor([[0.1, 0.2]]), np.array([[0, 0]]))


def test_distill_hand_value_and_grad():
    student = ad.tensor([[1.0, -2.0, 0.5]], requires_grad=True)
    loss = distill_loss(student, np.array([[0.0, -2.0, 2.0]]))
    assert loss.item() == pytest.approx(1.0 + 0.0 + 1.5)
    ad.backward(loss)
    np.testing.assert_allclose(student.grad, [[1.0, 0.0, -1.0]])  # tie gives 0


def test_distill_batch_is_mean_of_image_distances():
    student = ad.tensor([[1.0, -2.0], [0.0, 3.0]], requires_grad=True)
    loss = distill_loss(student, np.array([[0.0, -2.0], [1.0, 1.0]]))
    assert loss.item() == pytest.approx((1.0 + 3.0) / 2)
    ad.backward(loss)
    np.testing.assert_allclose(student.grad, [[0.5, 0.0], [-0.5, 0.5]])


def test_batch_mean_matches_numpy():
    rng = substream(1, "test.losses.mean")
    vals = rng.normal(0, 1, 5)
    got = batch_mean(ad.tensor(vals)).item()
    assert got == pytest.approx(vals.mean(), abs=1e-12)
    with pytest.raises(ValueError):
        batch_mean(ad.tensor(np.zeros(0)))


def test_ranking_gradient_pushes_positives_up():
    s = ad.tensor([[0.0, 0.5, 0.9]], requires_grad=True)
    ad.backward(ranking_loss(s, mask([1, 0, 0])))
    assert s.grad[0, 0] < 0  # positive score should rise
    assert (s.grad[0, 1:] > 0).all()
