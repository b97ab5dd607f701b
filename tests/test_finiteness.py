"""The finiteness test every tensor and the hot-path checks run: it gives
np.isfinite(a).all()'s answer, raises the same NonFinite messages at the
same ops, and never warns (it does not sum the values, so a finite array
whose sum overflows is accepted silently).
"""

import re
import warnings

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml import vit
from ovml.autodiff import NonFinite
from ovml.heads import EmbeddingPair, score
from ovml.labels import LabelEmbeddingTable
from ovml.optim import AdamW
from ovml.seeds import substream


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _raise_site(excinfo):
    return [entry.name for entry in excinfo.traceback]


TENSOR_MESSAGE = re.escape("tensor holds NaN/Inf values")


@pytest.mark.parametrize(
    "data",
    [[1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf], np.nan, [[1.0], [-np.inf]]],
    ids=["nan", "+inf", "-inf", "inf-mix", "0d-nan", "2d"],
)
def test_non_finite_values_raise_with_the_tensor_message(data):
    with pytest.raises(NonFinite, match=f"^{TENSOR_MESSAGE}$") as excinfo:
        ad.tensor(data)
    assert _raise_site(excinfo)[-2:] == ["tensor", "__init__"]


@pytest.mark.parametrize(
    "data", [[1e308, 1e308], np.empty((0, 3)), 2.5, np.float64(-1e308)], ids=["sum-overflows", "empty", "0d", "scalar"]
)
def test_finite_values_are_accepted_silently(data):
    t = ad.tensor(data)
    assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))


@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4), (0,)])
def test_helper_answers_as_isfinite_all(bad, shape):
    a = substream(0, f"test.finiteness.{shape}").normal(0, 1e300, shape)
    if bad is not None and a.size:
        a[(0,) * len(shape)] = bad
    for view in (a, a.T, a[..., ::2] if a.ndim else a):
        assert ad._all_finite(view) == np.isfinite(view).all()


def test_attention_logits_check_raises_at_the_attention_kernel():
    block = vit.init_block(substream(0, "test.finiteness.attention"), width=4, heads=2)
    x = ad.tensor(np.abs(substream(1, "test.finiteness.attention").normal(0, 1, (6, 4))) + 0.1)
    block.wq[0].data[0, 0] = np.inf  # leaves are edited in place, as gradcheck does
    with pytest.raises(NonFinite, match=r"^attention logits hold NaN/Inf values$") as excinfo:
        vit.msa(x, block, group=3)
    assert _raise_site(excinfo)[-3:] == ["msa", "_msa", "_attention"]


def test_score_similarity_check_raises_at_the_score_node():
    e_cls, e_patch, z = ad.tensor(np.ones((1, 2))), ad.tensor(np.ones((3, 2))), ad.tensor([[1.0, 0.0]])
    e_patch.data[2, 0] = -np.inf  # a similarity top-2 pooling would drop
    with pytest.raises(NonFinite, match=r"^patch-label similarities hold NaN/Inf values$") as excinfo:
        score(EmbeddingPair(e_cls=e_cls, e_patch=e_patch), LabelEmbeddingTable(z, (0,)), k=2, heads="local")
    assert _raise_site(excinfo)[-1] == "score"


def test_adamw_check_raises_at_the_step():
    p = ad.tensor(np.ones(3), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    p.grad = np.ones(3)
    opt.lr = np.inf
    with pytest.raises(NonFinite, match=r"^the AdamW update makes a weight NaN/Inf$") as excinfo:
        opt.step()
    assert _raise_site(excinfo)[-1] == "step"
    assert np.array_equal(p.data, np.ones(3)) and opt.step_count == 0
