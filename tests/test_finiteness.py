"""The finiteness test every tensor, the hot-path checks and tensor files
run: it gives np.isfinite(a).all()'s answer, raises the same NonFinite
messages at the same ops, and never warns. It first sums the squares in one
BLAS dot, which proves a finite array finite; when that sum is not finite
(a NaN, an Inf, or squares that overflow) the elementwise test decides. BLAS
reports no overflow, so a finite array whose squares overflow is accepted
silently, and the next numpy ufunc does not warn either.
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
from ovml.tensor_io import BadTensorFile, read_tensor, write_tensor


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


# 1e-160 squares into the subnormal range, 1e-200 squares to 0, 1e300 squares to inf
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-200, 1e300])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4), (0,)])
def test_helper_answers_as_isfinite_all(bad, shape, where, scale):
    a = substream(0, f"test.finiteness.{shape}").normal(0, scale, shape)
    if bad is not None and a.size:
        a.flat[{"first": 0, "middle": a.size // 2, "last": a.size - 1}[where]] = bad
    for view in (a, a.T, a[..., ::2] if a.ndim else a):
        assert ad._all_finite(view) == np.isfinite(view).all()


def test_a_finite_sum_of_squares_decides_without_the_elementwise_test(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.isfinite called")

    a = substream(0, "test.finiteness.blas").normal(0, 1, (16, 24))
    monkeypatch.setattr(np, "isfinite", refuse)
    assert ad._all_finite(a) and ad._all_finite(np.empty((0, 3)))


@pytest.mark.parametrize("data", [[1e300, -1e300, 1.0], [np.inf, -np.inf], [1.0, np.nan]])
def test_a_sum_of_squares_that_is_not_finite_leaves_no_warning_behind(data):
    a = np.array(data)
    assert ad._all_finite(a) == np.isfinite(a).all()
    # a ufunc run next reads the floating-point status afresh: nothing carries over
    assert np.array_equal(np.multiply(np.ones(2), 3.0) + 1.0, [4.0, 4.0])
    assert np.add.reduce(np.arange(4.0)) == 6.0


def test_tensor_files_take_the_same_test(tmp_path):
    write_tensor(tmp_path / "big.mkt1", np.full((2, 3), 1e300))  # squares overflow, values finite
    assert np.array_equal(read_tensor(tmp_path / "big.mkt1"), np.full((2, 3), 1e300))
    bad = np.ones(7)
    bad[-1] = np.nan
    write_tensor(tmp_path / "bad.mkt1", bad)
    with pytest.raises(BadTensorFile, match=r"bad\.mkt1: non-finite values$"):
        read_tensor(tmp_path / "bad.mkt1")


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
