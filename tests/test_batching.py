"""Batched graphs against the one-image and one-label loops they replace:
a minibatch must compute what its members compute alone.

Weights are moved off their 0.02-scale initialization so that scores,
losses and gradients are O(1) and a mismatch cannot hide below the
tolerances.
"""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.heads import HEAD_MODES
from ovml.model import ModelConfig, encode, fixed_table, init_model, live_table, score_batch, score_image
from ovml.seeds import substream
from ovml.synth import build_world, sample
from ovml.text_encoder import text_surrogate_encode
from ovml.training import positive_mask, stage1_losses


@pytest.fixture(scope="module")
def world():
    return build_world(12, 0.75, 0)


@pytest.fixture(scope="module")
def dataset(world):
    return sample(world, 16, world.split.seen, seed=0, stream="sample.train")


def generic_model(world, seed, **config):
    model = init_model(seed, world, ModelConfig(**config))
    rng = substream(seed, "test.batching.weights")
    for t in model.named_params().values():
        t.data = rng.normal(0.0, 0.5, t.shape)
    return model


@pytest.mark.parametrize("mode", HEAD_MODES)
def test_score_batch_matches_one_image_loop(world, dataset, mode):
    model = generic_model(world, 1, head_mode=mode)
    table = fixed_table(model)
    for b in (1, 5, 16):
        images = dataset.images[:b]
        want = np.concatenate([score_image(model, encode(model, image), table).data for image in images])
        got = score_batch(model, images, table).scores
        assert got.shape == want.shape == (b, len(table.label_ids))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_stage1_batch_loss_and_grads_match_mean_of_single_images(world, dataset):
    model = generic_model(world, 2)
    table = fixed_table(model)
    positive = positive_mask(dataset, table.label_ids)
    params = {n: t for n, t in model.named_params().items() if n != "prompt.context"}
    b = len(dataset)

    for t in params.values():
        t.zero_grad()
    rank, dist = stage1_losses(model, dataset.images, positive, dataset.teacher, table)
    batch_loss = ad.add(rank, dist)
    ad.backward(batch_loss)
    batch_grads = {n: t.grad.copy() for n, t in params.items()}

    for t in params.values():
        t.zero_grad()
    singles = []
    for i in range(b):
        rank, dist = stage1_losses(
            model, dataset.images[i:i + 1], positive[i:i + 1], dataset.teacher[i:i + 1], table
        )
        loss = ad.add(rank, dist)
        singles.append(loss.item())
        ad.backward(ad.scale(loss, 1.0 / b))  # grads accumulate into the mean

    mean = float(np.mean(singles))
    assert abs(batch_loss.item() - mean) <= 1e-12 * abs(mean)
    for name, t in params.items():
        scale = np.abs(t.grad).max()
        assert scale > 0, name
        assert np.abs(batch_grads[name] - t.grad).max() <= 1e-12 * scale, name


def test_label_table_matches_per_label_encoding(world):
    model = init_model(3, world)
    context = model.prompt.context
    context.zero_grad()
    table = live_table(model)
    ad.backward(ad.mean_all(table.z))
    batch_grad = context.grad.copy()

    context.zero_grad()
    d = len(table.label_ids)
    for row, lid in enumerate(table.label_ids):
        emb = text_surrogate_encode(context, model.surrogate.token_rows([lid]), model.surrogate)
        np.testing.assert_allclose(table.z.data[row], emb.data[0], rtol=0, atol=1e-12)
        ad.backward(ad.scale(ad.mean_all(emb), 1.0 / d))
    assert np.abs(batch_grad - context.grad).max() <= 1e-12 * np.abs(context.grad).max()


def test_score_batch_is_bit_identical_in_any_chunking(world):
    test = sample(world, 200, world.split.all_ids, seed=0, stream="sample.test")
    model = generic_model(world, 4)
    table = fixed_table(model)
    once = score_batch(model, test.images, table).scores
    assert once.shape == (200, len(table.label_ids))
    for chunk in (1, 16, 50):
        parts = [score_batch(model, test.images[s:s + chunk], table).scores for s in range(0, 200, chunk)]
        np.testing.assert_array_equal(np.concatenate(parts), once)
