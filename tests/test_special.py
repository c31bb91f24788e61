"""The normal quantile and the chi-square tail, against scipy as the oracle."""

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import chi2

from fairmimic import data as data_mod
from fairmimic._special import chi2_sf, ndtri

from conftest import same_bits


def _relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.where(want == 0.0, 1.0, np.abs(want))


def _around(u, ulps=40):
    """``u`` and the ``ulps`` floats on either side of it."""
    below, above = [u], [u]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return np.array(below[::-1] + above[1:])


class TestNdtri:
    def test_gauss_draws_match_scipy(self):
        # _gauss's own uniforms: (k + 0.5) 2^-53 for k drawn from the seed
        size = 2_000_000
        k = np.random.default_rng(2024).integers(0, 1 << 53, size=size)
        u = (k.astype(np.float64) + 0.5) * 2.0**-53
        z = data_mod._gauss(np.random.default_rng(2024), size)
        assert np.array_equal(z, ndtri(u))
        assert _relative_error(z, scipy_ndtri(u)).max() <= 2e-15

    def test_edges_match_scipy(self):
        r5 = np.exp(-25.0)  # the switch between the two tail rationals
        u = np.concatenate([
            [2.0**-54, 1.0 - 2.0**-53, 0.5, 2.0**-30, 1e-300],
            _around(0.075), _around(0.925),  # |u - 1/2| = 0.425
            _around(r5), _around(1.0 - r5),
            _around(0.5),
        ])
        assert _relative_error(ndtri(u), scipy_ndtri(u)).max() <= 2e-15
        assert ndtri(np.array([0.5]))[0] == 0.0

    def test_blocks_change_nothing(self):
        # _gauss draws and transforms GAUSS_BLOCK entries at a time; its
        # output equals, bit for bit, the concatenation of the draws of any
        # pieces taken in turn from the same generator, and the quantile of
        # an array equals that of its pieces, wherever they are cut
        b = data_mod.GAUSS_BLOCK
        size = 3 * b + 11
        cuts = [1, b - 1, b, b + 1, 2 * b - 3, 2 * b, 3 * b + 5]
        whole = data_mod._gauss(np.random.default_rng(7), size)
        rng = np.random.default_rng(7)
        pieces = [data_mod._gauss(rng, k) for k in np.diff([0, *cuts, size])]
        assert np.array_equal(whole.view(np.int64), np.concatenate(pieces).view(np.int64))

        u = np.random.default_rng(8).random(size)
        u[::97] *= 1e-12  # plenty of far-tail entries
        pieces = [ndtri(part) for part in np.split(u, cuts)]
        assert np.array_equal(ndtri(u).view(np.int64), np.concatenate(pieces).view(np.int64))

    @pytest.mark.parametrize("shape", [(3200,), (50, 3), (0,), (0, 4)])
    def test_out_gets_the_same_bits(self, shape):
        u = np.random.default_rng(9).random(shape)
        u.reshape(-1)[::7] *= 1e-14  # tail and far-tail entries
        out = np.full(shape, np.nan)
        assert ndtri(u, out=out) is out
        assert same_bits(out, ndtri(u))

    def test_out_must_fit_and_not_overlap(self):
        u = np.random.default_rng(9).random(10)
        for out in (np.empty(9), np.empty(10, dtype=np.float32), np.empty(20)[::2], u):
            with pytest.raises(ValueError):
                ndtri(u, out=out)

    def test_shape_is_kept(self):
        u = np.random.default_rng(8).random((50, 3))
        assert np.array_equal(ndtri(u), ndtri(u.ravel()).reshape(50, 3))
        assert ndtri(np.empty((0, 4))).shape == (0, 4)


class TestChi2Sf:
    @pytest.mark.parametrize("df", range(1, 11))
    def test_matches_scipy(self, df):
        xs = np.concatenate([[0.0, 1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.01, 300.0, 2000)])
        got = np.array([chi2_sf(x, df) for x in xs])
        assert _relative_error(got, chi2.sf(xs, df)).max() <= 1e-13

    @pytest.mark.parametrize("x, df", [(1401.0, 3), (1500.0, 1400), (2000.0, 2000), (3000.0, 2501)])
    def test_large_statistics_match_scipy(self, x, df):
        # beyond x = 1400 exp(-x/2) is no longer a normal float and each
        # term is taken from its logarithm
        assert chi2_sf(x, df) == pytest.approx(float(chi2.sf(x, df)), rel=1e-11)

    def test_zero_statistic_is_certain(self):
        assert [chi2_sf(0.0, df) for df in range(1, 6)] == [1.0] * 5
