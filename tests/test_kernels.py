"""Time-major kernels: recursion semantics and the threshold rule.

Blocks are (periods, paths); the scalar one-path loops in scalar_oracle.py
are the reference. A path's doubles must equal the loop's exactly, but for
trade_scan's profits, which are within scan_profits.PROFIT_TOL of the
account value.
"""

import math

import numpy as np
import pytest

import scalar_oracle
from pairtrade import kernels
from pairtrade.spread import CointegrationSpread, StationaryPointError
from scan_profits import assert_profits_close, events, values
from spread_models import RatioSpread

LOG_LINEAR = CointegrationSpread(2.0, 0.0)
TILE = kernels.TILE


def _inputs(n=5_000, seed=123):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, n)
    return u, v


def _ou(u, v, *args):
    """ou_recursion on fresh (steps + 1, paths) blocks whose rows 1.. hold u and v."""
    s = np.empty((len(u) + 1, u.shape[1]))
    w = np.empty_like(s)
    s[1:] = u
    w[1:] = v
    return kernels.ou_recursion(s, w, *args)


def _block(n=2_000, paths=3, seed=9):
    """(p1, p2, s) blocks of `paths` independent paths of length n + 1."""
    draws = [_inputs(n, seed + j) for j in range(paths)]
    u = np.column_stack([d[0] for d in draws])
    v = np.column_stack([d[1] for d in draws])
    s, w = _ou(u, v, 0.3, 0.012, 0.005, 0.0, math.log(100.0))
    return np.exp(w), np.exp(2.0 * w + s), s


def _scan(model, p1, p2, s, *args, **kwargs):
    """trade_scan with fresh out blocks unless given: (on, sabs, dv), the
    traded mask and the |s| and profit blocks."""
    kwargs.setdefault("out", tuple(np.empty((2, *s[:-1].shape))))
    on = kernels.trade_scan(model, p1, p2, s, *args, **kwargs)
    return (on, *kwargs["out"])


class TestOuRecursion:
    def test_semantics(self):
        # hand-check the first two steps of the recursion on a one-path block
        u = np.array([[1.0], [-0.5]])
        v = np.array([[0.25], [0.25]])
        s, w = _ou(u, v, 0.3, 0.01, 0.005, 0.1, 2.0)
        assert s.shape == w.shape == (3, 1)
        assert s[0, 0] == 0.1 and w[0, 0] == 2.0
        assert s[1, 0] == pytest.approx(0.7 * 0.1 + 0.01, rel=1e-15)
        assert w[1, 0] == pytest.approx(2.0 + 0.005 * 0.25, rel=1e-15)
        assert s[2, 0] == pytest.approx(0.7 * s[1, 0] - 0.005, rel=1e-15)

    def test_paths_equal_scalar_loop(self):
        # one path takes the Python-float loop, three take the row loop; both
        # overwrite the innovation blocks they are given
        for paths in (1, 3):
            seeds = range(1, paths + 1)
            u = np.column_stack([_inputs(3_000, seed)[0] for seed in seeds])
            v = np.column_stack([_inputs(3_000, seed)[1] for seed in seeds])
            blocks = np.empty((2, 3_001, paths))
            blocks[0, 1:] = u
            blocks[1, 1:] = v
            s, w = kernels.ou_recursion(*blocks, 0.3, 0.012, 0.005, 0.02, math.log(100.0))
            assert np.shares_memory(s, blocks[0]) and np.shares_memory(w, blocks[1])
            for j in range(paths):
                ref_s, ref_w = scalar_oracle.ou_recursion(
                    u[:, j], v[:, j], 0.3, 0.012, 0.005, 0.02, math.log(100.0)
                )
                assert np.array_equal(s[:, j], ref_s)
                assert np.array_equal(w[:, j], ref_w)


class TestTradeScan:
    @pytest.mark.parametrize(
        "model, tau",
        [
            (LOG_LINEAR, 0.00625),
            (RatioSpread(), 0.00625),
            (LOG_LINEAR, np.linspace(0.0, 0.02, 300)[:, None]),
        ],
        ids=["log-linear", "ratio", "per-period-tau"],
    )
    def test_matches_reference_loop(self, model, tau):
        # independent reimplementation with the allocation primitives
        from pairtrade.trading import allocate

        p1, p2, s = _block(300, paths=2)
        lev, v0 = 1.0, 10_000.0
        on, sabs, dv = _scan(model, p1, p2, s, tau, lev, v0)

        taus = np.broadcast_to(tau, s[:-1].shape)
        expect_dv, expect_sabs, finals = [], [], []
        for j in range(p1.shape[1]):
            value = v0
            for k in range(len(p1) - 1):
                a, b = float(p1[k, j]), float(p2[k, j])
                g1, g2 = (float(g) for g in model.gradient(a, b))
                tau_k = float(taus[k, j])
                n1, n2 = allocate(g1, g2, a, b, float(s[k, j]), tau_k, value, lev)
                if abs(float(s[k, j])) > tau_k:
                    step = n1 * (float(p1[k + 1, j]) - a) + n2 * (float(p2[k + 1, j]) - b)
                    expect_dv.append(step)
                    expect_sabs.append(abs(float(s[k, j])))
                    value += step
            finals.append(value)
        assert np.array_equal(events(sabs, on), expect_sabs)
        assert_profits_close(
            events(dv, on), expect_dv, events(values(dv, v0), on)
        )
        assert v0 + np.sum(dv[:, 0]) == pytest.approx(finals[0], rel=1e-12)
        assert v0 + np.sum(dv[:, 1]) == pytest.approx(finals[1], rel=1e-12)

    @pytest.mark.parametrize("tau, leverage", [(0.00625, 1.0), (0.02, 2.5), (0.0, 0.5)])
    def test_paths_equal_scalar_loop(self, tau, leverage):
        p1, p2, s = _block(1_000, paths=4)
        on, sabs, dv = _scan(LOG_LINEAR, p1, p2, s, tau, leverage, 10_000.0)
        refs = [
            scalar_oracle.trade_scan(p1[:, j], p2[:, j], s[:, j], 2.0, tau, leverage, 10_000.0)
            for j in range(4)
        ]
        assert np.array_equal(events(sabs, on), np.concatenate([r[1] for r in refs]))
        assert_profits_close(
            events(dv, on),
            np.concatenate([r[0] for r in refs]),
            events(values(dv, 10_000.0), on),
        )

    @pytest.mark.parametrize("tau", [0.00625, math.inf])
    def test_out_blocks(self, tau):
        # the out blocks receive |s| and every period's profit, and the mask
        # is the traded periods, |s| > tau
        p1, p2, s = _block(400, paths=3)
        planes = np.full((2, *s[:-1].shape), np.nan)
        on = kernels.trade_scan(LOG_LINEAR, p1, p2, s, tau, 1.0, 10_000.0, out=tuple(planes))
        assert on.dtype == bool and on.shape == s[:-1].shape
        assert np.array_equal(planes[0], np.abs(s[:-1]))
        assert np.array_equal(on, planes[0] > tau)
        assert np.isfinite(planes[1]).all()

    def test_infinite_tau_never_trades(self):
        p1, p2, s = _block(500)
        on, _, dv = _scan(LOG_LINEAR, p1, p2, s, math.inf, 1.0, 10_000.0)
        assert not on.any()
        assert not dv.any()

    def test_last_period_not_traded(self):
        # two periods: only period 0 can realize a profit
        p1 = np.array([[100.0], [101.0]])
        p2 = np.array([[50.0], [49.0]])
        s = np.array([[1.0], [1.0]])
        on, sabs, dv = _scan(LOG_LINEAR, p1, p2, s, 0.1, 1.0, 10_000.0)
        assert on.shape == (1, 1) and on[0, 0]
        assert sabs[0, 0] == 1.0
        # against s > 0: short p2 and long p1, both legs gain
        assert dv[0, 0] > 0.0

    @pytest.mark.parametrize("tau", [0.0, math.inf])
    def test_stationary_point_raises(self, tau):
        # the gradient vanishes at every point, traded or not
        class Flat(CointegrationSpread):
            def gradient(self, p1, p2):
                return 0.0 * np.asarray(p1), 0.0 * np.asarray(p2)

        p1, p2, s = _block(50)
        with pytest.raises(StationaryPointError):
            _scan(Flat(2.0, 0.0), p1, p2, s, tau, 1.0, 10_000.0)


class TestReturnsForm:
    """The contract of the returns form: a period's return depends on the
    prices alone, each path's value is v0 plus the running sum of its
    profits, and an untraded period's profit is +-0."""

    @pytest.mark.parametrize("model", [LOG_LINEAR, RatioSpread()], ids=["log-linear", "ratio"])
    def test_untraded_profits_are_zero(self, model):
        p1, p2, s = _block(3 * TILE + 5, paths=4)
        on, _, dv = _scan(model, p1, p2, s, 0.00625, 2.5, 10_000.0)
        assert on.any() and not on.all()
        assert np.all(dv[~on] == 0.0)
        assert np.all(dv[on] != 0.0)

    @pytest.mark.parametrize("model", [LOG_LINEAR, RatioSpread()], ids=["log-linear", "ratio"])
    @pytest.mark.parametrize("leverage", [1.0, 15.0])
    def test_value_is_running_sum_of_profits(self, model, leverage):
        # a one-period scan from v0 = 1 gives that period's r on; a long
        # scan's profit is exactly that times v0 plus the running sum of
        # the path's earlier profits
        p1, p2, s = _block(3 * TILE + 5, paths=4)
        _, _, dv = _scan(model, p1, p2, s, 0.00625, leverage, 10_000.0)
        r = np.concatenate([
            _scan(model, p1[k : k + 2], p2[k : k + 2], s[k : k + 2], 0.00625, leverage, 1.0)[2]
            for k in range(len(dv))
        ])
        v = values(dv, 10_000.0)
        assert np.array_equal(dv, v * r)
        assert np.all(v > 0.0) and len(np.unique(v[-1])) == 4

    def test_first_stationary_point_named(self):
        # the gradient vanishes in one period on a traded point of path 2
        # and an untraded one of path 1, and on path 0 a period later: the
        # point of path 1 is named, although its NaN profit reaches only
        # path 1's later values
        k = TILE + 3
        flat = (77.0, 78.0, 79.0)

        class FlatAt(CointegrationSpread):
            def gradient(self, p1, p2):
                g1, g2 = super().gradient(p1, p2)
                at = np.isin(np.asarray(p1), flat)
                return np.where(at, 0.0, g1), np.where(at, 0.0, g2)

        p1, p2, s = _block(3 * TILE + 4, paths=3)
        p1[k, 2], p1[k, 1], p1[k + 1, 0] = flat
        s[k, 2], s[k, 1] = 0.5, 0.0
        with pytest.raises(StationaryPointError, match=rf"at \(78.0, .*\), period {k} of path 1$"):
            _scan(FlatAt(2.0, 0.0), p1, p2, s, 0.00625, 1.0, 10_000.0)


def _allocate_loop(model, p1, p2, s, tau, lev, v0):
    """The threshold rule through trading.allocate, path by path and period
    by period: the traded mask, and (dv, sabs) of every traded period, path
    after path, with holdings -lam sign(s) g and sign(0) = -1."""
    from pairtrade.trading import allocate

    taus = np.broadcast_to(tau, s[:-1].shape)
    on = np.zeros(s[:-1].shape, dtype=bool)
    dvs, sabs = [], []
    for j in range(p1.shape[1]):
        value = v0
        for k in range(len(p1) - 1):
            a, b, sk = float(p1[k, j]), float(p2[k, j]), float(s[k, j])
            g1, g2 = (float(g) for g in model.gradient(a, b))
            da, db = float(p1[k + 1, j]) - a, float(p2[k + 1, j]) - b
            tau_k = float(taus[k, j])
            n1, n2 = allocate(g1, g2, a, b, sk, tau_k, value, lev)
            if abs(sk) > tau_k:
                step = n1 * da + n2 * db
                on[k, j] = True
                dvs.append(step)
                sabs.append(abs(sk))
                value += step
    return on, np.array(dvs), np.array(sabs)



class TestTradeScanTiles:
    """Blocks of every length around the tile edges: one period, a lone
    partial tile, exactly one tile, one and two periods past it, and three
    full tiles and a partial one."""

    @pytest.mark.parametrize("periods", [2, TILE, TILE + 1, TILE + 2, 3 * TILE + 5])
    @pytest.mark.parametrize("paths", [1, 3])
    @pytest.mark.parametrize("model", [LOG_LINEAR, RatioSpread()], ids=["log-linear", "ratio"])
    @pytest.mark.parametrize("per_period_tau", [False, True], ids=["tau", "tau-column"])
    def test_matches_reference_loop(self, periods, paths, model, per_period_tau):
        p1, p2, s = _block(periods - 1, paths=paths)
        tau = np.linspace(0.0, 0.02, periods - 1)[:, None] if per_period_tau else 0.00625
        planes = np.full((2, periods - 1, paths), np.nan)
        on = kernels.trade_scan(model, p1, p2, s, tau, 2.5, 10_000.0, out=tuple(planes))
        expect_on, expect_dv, expect_sabs = _allocate_loop(model, p1, p2, s, tau, 2.5, 10_000.0)
        assert on.any() or periods == 2
        # row 0 has s = 0 on every path: never traded
        assert np.array_equal(on, expect_on)
        assert np.array_equal(events(planes[0], on), expect_sabs)
        assert_profits_close(
            events(planes[1], on), expect_dv, events(values(planes[1], 10_000.0), on)
        )
        assert np.all(planes[1][~on] == 0.0)

    @pytest.mark.parametrize("periods", [2, TILE + 1, TILE + 2, 3 * TILE + 5])
    def test_one_gradient_call_per_tile(self, periods):
        calls = []

        class Counting(CointegrationSpread):
            def gradient(self, p1, p2):
                calls.append(np.shape(p1))
                return super().gradient(p1, p2)

        p1, p2, s = _block(periods - 1, paths=3)
        _scan(Counting(2.0, 0.0), p1, p2, s, 0.00625, 1.0, 10_000.0)
        rows = [min(TILE, periods - 1 - k0) for k0 in range(0, periods - 1, TILE)]
        assert calls == [(r, 3) for r in rows]

    def test_stationary_point_on_an_untraded_period(self):
        # the gradient vanishes at one untraded point of path 2 in the third
        # tile, and again later on path 0: the first one is named, although
        # the masked-out NaN profit reaches path 2's account value
        k = 2 * TILE + 3
        flat = 77.0

        class FlatAt(CointegrationSpread):
            def gradient(self, p1, p2):
                g1, g2 = super().gradient(p1, p2)
                at = np.asarray(p1) == flat
                return np.where(at, 0.0, g1), np.where(at, 0.0, g2)

        p1, p2, s = _block(3 * TILE + 4, paths=3)
        p1[k, 2] = p1[k + 5, 0] = flat
        s[k, 2] = 0.0
        with pytest.raises(StationaryPointError, match=rf"period {k} of path 2$"):
            _scan(FlatAt(2.0, 0.0), p1, p2, s, 0.00625, 1.0, 10_000.0)
