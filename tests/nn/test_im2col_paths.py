"""The fast conv kernels against their reference oracles.

The strided im2col and the offset-accumulate col2im are pure reimplement-
ations of the gather/scatter reference paths; equality here is *bitwise*
(``assert_array_equal``), not allclose — both pairs accumulate in the same
order, so any difference is a bug. Finite differences then anchor the
whole conv backward (which composes both fast paths) to calculus.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.functional import (
    _col2im_accumulate,
    _col2im_scatter,
    _im2col_gather,
    _im2col_strided,
    im2col_indices,
)
from repro.nn.tensor import Tensor
from tests.helpers import check_grads

# Odd geometries on purpose: 1x1 kernels, stride > kernel, pad >= kernel,
# non-square-friendly spatial sizes. (n, c, h, w, k, stride, pad)
GEOMETRIES = [
    (2, 3, 8, 8, 3, 1, 1),
    (1, 1, 7, 7, 1, 1, 0),
    (2, 2, 9, 9, 3, 2, 0),
    (3, 2, 8, 8, 3, 2, 1),
    (1, 4, 11, 11, 5, 2, 2),
    (2, 1, 6, 6, 5, 1, 0),
    (1, 2, 5, 5, 1, 2, 1),
    (2, 3, 10, 10, 5, 3, 1),
    # degenerate spatial dims from deep VGG stages at smoke scale: the
    # window-view transpose can silently become a reshape-view here, so
    # these are the geometries where layout (not value) bugs hide
    (2, 16, 1, 1, 3, 1, 1),
    (3, 8, 2, 2, 3, 1, 1),
]


def _cols_for(geometry, seed=0):
    n, c, h, w, k, stride, pad = geometry
    x = np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(np.float32)
    cols, out_h, out_w = _im2col_gather(x, k, k, stride, pad)
    return x, np.ascontiguousarray(cols), out_h, out_w


class TestFastPathsBitwise:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_im2col_strided_matches_gather(self, geometry):
        n, c, h, w, k, stride, pad = geometry
        x = np.random.default_rng(1).standard_normal((n, c, h, w)).astype(np.float32)
        ref, oh_ref, ow_ref = _im2col_gather(x, k, k, stride, pad)
        fast, oh, ow = _im2col_strided(x, k, k, stride, pad)
        assert (oh, ow) == (oh_ref, ow_ref)
        np.testing.assert_array_equal(fast, ref)
        # Equal values are necessary but NOT sufficient: conv2d feeds the
        # columns to einsum/BLAS, which picks its reduction order from
        # operand strides. A layout change flips last-ulp bits in every
        # degenerate geometry (1x1 kernels, 1x1 outputs) — so the fast
        # path must reproduce the gather's memory layout exactly.
        assert fast.strides == ref.strides, (
            f"layout drift: fast {fast.strides} vs gather {ref.strides}"
        )

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_col2im_accumulate_matches_scatter(self, geometry):
        n, c, h, w, k, stride, pad = geometry
        x, cols, _, _ = _cols_for(geometry)
        ref = _col2im_scatter(cols, x.shape, k, k, stride, pad)
        fast = _col2im_accumulate(cols, x.shape, k, k, stride, pad)
        # bitwise: both fold kernel offsets in ascending (ki, kj) order
        np.testing.assert_array_equal(fast, ref)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_conv2d_output_is_c_contiguous(self, geometry, with_bias):
        """conv2d hands BatchNorm and pooling a C-order array whatever
        layout einsum returned: their multi-axis reductions then follow one
        fixed summation tree, which the committed result artifacts depend
        on to the last ulp."""
        n, c, h, w, k, stride, pad = geometry
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32))
        weight = Tensor(rng.standard_normal((4, c, k, k)).astype(np.float32))
        bias = Tensor(rng.standard_normal(4).astype(np.float32)) if with_bias else None
        out = F.conv2d(x, weight, bias, stride=stride, padding=pad)
        assert out.data.flags.c_contiguous

    def test_float64_cols_stay_float64(self):
        x, cols, _, _ = _cols_for((2, 2, 6, 6, 3, 1, 1))
        out = _col2im_accumulate(cols.astype(np.float64), x.shape, 3, 3, 1, 1)
        assert out.dtype == np.float64


class TestIndexCacheImmutable:
    def test_cached_indices_are_read_only(self):
        k, i, j, _, _ = im2col_indices(3, 8, 8, 3, 3, 1, 1)
        for arr in (k, i, j):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_mutation_attempt_does_not_poison_cache(self):
        """Regression: lru_cache hands every caller the *same* arrays; a
        writable entry mutated once would corrupt every later conv with
        that geometry."""
        geometry = (2, 7, 7, 3, 3, 2, 1)
        k1, i1, j1, _, _ = im2col_indices(*geometry)
        with pytest.raises(ValueError):
            i1 += 1
        k2, i2, j2, _, _ = im2col_indices(*geometry)
        assert i2 is i1  # same cache entry...
        x = np.random.default_rng(2).standard_normal((1, 2, 7, 7)).astype(np.float32)
        a, _, _ = _im2col_gather(x, 3, 3, 2, 1)
        b, _, _ = _im2col_strided(x, 3, 3, 2, 1)
        np.testing.assert_array_equal(a, b)  # ...and still correct

    def test_lru_cap_evicts_without_breaking_frozen_entries(self):
        """The memo is bounded (maxsize=256): a flood of distinct geometries
        — e.g. from many model families in one process — must evict old entries instead
        of growing without limit, and entries recomputed after eviction must
        carry the same read-only invariant and the same values."""
        maxsize = im2col_indices.cache_info().maxsize
        assert maxsize == 256  # the cap this test pins
        im2col_indices.cache_clear()
        geometry = (3, 8, 8, 3, 3, 1, 1)
        k1, i1, j1, oh1, ow1 = im2col_indices(*geometry)
        # Flood the cache past its cap with distinct geometries.
        for h in range(maxsize + 8):
            im2col_indices(1, 8 + h, 8, 3, 3, 1, 1)
        info = im2col_indices.cache_info()
        assert info.currsize <= maxsize  # capped, not unbounded
        # The original entry was evicted; the recomputed one is a *new*
        # object with identical frozen contents.
        k2, i2, j2, oh2, ow2 = im2col_indices(*geometry)
        assert i2 is not i1
        for arr in (k2, i2, j2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        np.testing.assert_array_equal(k2, k1)
        np.testing.assert_array_equal(i2, i1)
        np.testing.assert_array_equal(j2, j1)
        assert (oh2, ow2) == (oh1, ow1)


class TestConvGradcheck:
    """Central-difference gradcheck through the *fast* kernels: conv2d
    backward composes col2im (input grad) and im2col-of-grad (weight grad),
    so this pins both against calculus rather than just the reference."""

    @pytest.mark.parametrize(
        "geometry",
        [
            (2, 2, 6, 6, 3, 1, 1),
            (1, 3, 7, 7, 3, 2, 0),
            (2, 1, 5, 5, 1, 1, 0),
            (1, 2, 8, 8, 5, 2, 1),
            (1, 1, 7, 7, 5, 3, 2),
        ],
    )
    def test_conv2d_grads(self, geometry):
        n, c, hw, _w, k, stride, pad = geometry
        rng = np.random.default_rng(sum(geometry))
        x = Tensor(
            rng.standard_normal((n, c, hw, hw)).astype(np.float32), requires_grad=True
        )
        w = Tensor(
            (rng.standard_normal((2, c, k, k)) * 0.5).astype(np.float32),
            requires_grad=True,
        )
        b = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        check_grads(
            lambda: F.conv2d(x, w, b, stride=stride, padding=pad).sum(),
            [x, w, b],
        )
