"""Plain-numpy forward pass of the scoring model, written from the model's
definition (pre-norm ViT, two-stream heads, top-k pooled local scores)
without ovml's autodiff, to check the scores the program computes.
"""

from __future__ import annotations

import math

import numpy as np


def _layer_norm(x, gain, bias):
    xc = x - x.mean(axis=1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _block(x, b):
    h = _layer_norm(x, b.ln1_gain.data, b.ln1_bias.data)
    heads = []
    for wq, wk, wv in zip(b.wq, b.wk, b.wv):
        q, k, v = h @ wq.data, h @ wk.data, h @ wv.data
        heads.append(_softmax_rows(q @ k.T / math.sqrt(wq.shape[1])) @ v)
    x = x + np.concatenate(heads, axis=1) @ b.wo.data
    h = _layer_norm(x, b.ln2_gain.data, b.ln2_bias.data)
    return x + _gelu(h @ b.mlp_w1.data + b.mlp_b1.data) @ b.mlp_w2.data + b.mlp_b2.data


def reference_scores(model, image: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Scores of one (C, H, W) image against label rows `z`, head mode "both"."""
    if model.config.head_mode != "both":
        raise ValueError("the reference covers head mode 'both' only")
    p = model.patch_size
    c, h, w = image.shape
    patches = image.reshape(c, h // p, p, w // p, p).transpose(1, 3, 0, 2, 4).reshape(-1, c * p * p)
    vit, heads = model.vit, model.streams
    x = np.vstack([vit.cls_token.data, patches @ vit.patch_proj.data]) + vit.pos_embed.data
    for block in vit.blocks:
        x = _block(x, block)
    e_cls = x[0] @ heads.global_w.data + heads.global_b.data
    hidden = _gelu(x[1:] @ heads.local_w1.data + heads.local_b1.data)
    e_patch = hidden @ heads.local_w2.data + heads.local_b2.data
    sims = e_patch @ z.T
    local = -np.sort(-sims, axis=0)[: model.config.k].mean(axis=0)
    return z @ e_cls + local
