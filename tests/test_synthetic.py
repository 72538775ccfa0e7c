"""Generator guarantees and the two Monte Carlo verification harnesses.

The generator's laws checked here:
  - same seed, same series, bit for bit; different seeds differ;
  - every one-period return is inside [-gamma_cap, gamma_cap];
  - the true-parameter spread of a generated series recovers the injected
    state path;
  - estimate_eta applied to the true spread converges to theta.
"""

import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrade import kernels, synthetic
from pairtrade.domain import DomainError, LengthError, PricePoint, return_arrays
from pairtrade.estimation import estimate_eta
from pairtrade.spread import CointegrationSpread, spread_gradient
from pairtrade.seeding import CHUNK_TRIALS, _pcg64_seeds, trial_generators
from pairtrade.stats import _one_sided_p
from pairtrade.synthetic import (
    LemmaSummary, OUPairSpec, generate_pair, verify_lemma, verify_theorem,
)
from pairtrade.trading import threshold_exact
from spread_models import CosPerturbedSpread, RatioSpread

BASE = dict(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta_true=2.0, mu_true=0.0, gamma_cap=0.05)


def make_spec(**kw):
    return OUPairSpec(**{**BASE, **kw})


class TestSpecValidation:
    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.1, 1.3])
    def test_theta_domain(self, theta):
        with pytest.raises(DomainError):
            make_spec(theta=theta)

    def test_negative_scales(self):
        with pytest.raises(DomainError):
            make_spec(sigma_s=-0.01)

    def test_infeasible_scales_rejected(self):
        with pytest.raises(DomainError) as exc_info:
            make_spec(sigma_s=0.2)
        assert "infeasible" in str(exc_info.value)

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            make_spec(seed=-1)
        with pytest.raises(DomainError):
            make_spec(seed=1.5)

    @pytest.mark.parametrize("name", ["beta_true", "sigma_s", "gamma_cap", "theta", "s0"])
    def test_huge_int_rejected(self, name):
        # math.isfinite raises OverflowError on an int beyond the float range
        with pytest.raises(DomainError, match=name):
            make_spec(**{name: 10**400})

    @pytest.mark.parametrize("flag", [True, np.False_])
    @pytest.mark.parametrize("name", ["beta_true", "mu_true", "sigma_s", "s0"])
    def test_bool_rejected(self, name, flag):
        with pytest.raises(DomainError, match=f"{name} must be a number"):
            make_spec(**{name: flag})

    def test_spread_bound(self):
        spec = make_spec(s0=0.01)
        assert spec.spread_bound == pytest.approx(max(0.01, 0.012 / 0.3))


class TestGeneratePair:
    def test_reproducible(self):
        a = generate_pair(make_spec(seed=7), 300)
        b = generate_pair(make_spec(seed=7), 300)
        assert np.array_equal(a.p1, b.p1)
        assert np.array_equal(a.p2, b.p2)

    def test_seeds_differ(self):
        a = generate_pair(make_spec(seed=7), 50)
        b = generate_pair(make_spec(seed=8), 50)
        assert not np.array_equal(a.p1, b.p1)

    def test_length_domain(self):
        with pytest.raises(LengthError):
            generate_pair(make_spec(), 1)

    @pytest.mark.parametrize("length", [2.5, 10.0, True])
    def test_length_must_be_an_int(self, length):
        with pytest.raises(LengthError, match="must be an integer"):
            generate_pair(make_spec(), length)

    def test_zero_noise_constant(self):
        spec = make_spec(sigma_s=0.0, sigma_w=0.0, s0=0.0)
        series = generate_pair(spec, 10)
        assert np.all(series.p1 == series.p1[0])
        assert np.all(series.p2 == series.p2[0])
        m = CointegrationSpread(2.0, 0.0)
        assert abs(m.value(series.p1[3], series.p2[3])) < 1e-12

    def test_returns_inside_cap(self):
        # large sweep across seeds: the cap is a hard guarantee, not a tendency
        for seed in range(10):
            series = generate_pair(make_spec(seed=seed), 2_000)
            rets = return_arrays(series)
            assert float(np.max(np.abs(rets))) <= BASE["gamma_cap"]

    def test_true_spread_recovers_injected_state(self):
        spec = make_spec(seed=5)
        series = generate_pair(spec, 500)
        m = CointegrationSpread(spec.beta_true, spec.mu_true)
        spread = m.value(series.p1, series.p2)
        # regenerate the injected state path with the same stream
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        uv = rng.uniform(-1.0, 1.0, size=(2, 499))
        s = np.empty(500)
        s[0] = spec.s0
        for k in range(499):
            s[k + 1] = (1.0 - spec.theta) * s[k] + spec.sigma_s * uv[0, k]
        np.testing.assert_allclose(spread, s, atol=1e-12)

    def test_eta_estimate_on_true_spread(self):
        spec = make_spec(theta=0.2, seed=1)
        series = generate_pair(spec, 100_000)
        m = CointegrationSpread(spec.beta_true, spec.mu_true)
        eta = estimate_eta(m.value(series.p1, series.p2))
        assert 0.18 <= eta <= 0.22

    def test_eta_consistency_improves_with_length(self):
        # median |eta_hat - theta| over 50 seeds must shrink as the sample
        # grows 10x, twice
        theta = 0.3
        errs = {}
        for n in (1_000, 10_000, 100_000):
            devs = []
            for seed in range(50):
                series = generate_pair(make_spec(theta=theta, seed=seed), n)
                m = CointegrationSpread(2.0, 0.0)
                devs.append(abs(estimate_eta(m.value(series.p1, series.p2)) - theta))
            errs[n] = float(np.median(devs))
        assert errs[10_000] < errs[1_000]
        assert errs[100_000] < errs[10_000]


class TestTrialGenerators:
    def test_documented_splitting_rule(self):
        # stream t is seeded with child t of SeedSequence(seed)
        gens = trial_generators(99, 3)
        children = np.random.SeedSequence(99).spawn(3)
        for gen, child in zip(gens, children):
            expect = np.random.default_rng(child).uniform(-1.0, 1.0, 5)
            got = gen.uniform(-1.0, 1.0, 5)
            assert np.array_equal(got, expect)

    def test_streams_differ(self):
        a, b = trial_generators(0, 2)
        assert not np.array_equal(a.uniform(size=8), b.uniform(size=8))

    def test_trials_domain(self):
        # raised at the call, before anything is iterated
        with pytest.raises(DomainError):
            trial_generators(0, 0)

    def test_streams_built_on_demand(self):
        # an iterator, not a list: verify_theorem builds one chunk at a time
        gens = trial_generators(5, 3)
        assert iter(gens) is gens
        assert all(isinstance(g, np.random.Generator) for g in gens)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**63))
    def test_chunked_draws_follow_the_spawn_rule(self, seed):
        # every trial's innovations, as verify_theorem feeds them to the OU
        # recursion chunk by chunk, are uniform(-1, 1) from child t of
        # SeedSequence(seed) bit for bit, across the chunk boundary too
        trials, periods = CHUNK_TRIALS + 3, 12
        blocks = []
        recursion = kernels.ou_recursion

        def recording(s, w, *args):
            # rows 1.. of the blocks hold the innovations on entry
            blocks.append((s[1:].copy(), w[1:].copy()))
            return recursion(s, w, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "ou_recursion", recording)
            verify_theorem(make_spec(seed=seed), trials=trials, periods=periods)
        assert [u.shape[1] for u, _ in blocks] == [CHUNK_TRIALS, 3]
        children = np.random.SeedSequence(seed).spawn(trials)
        for t in (0, CHUNK_TRIALS - 1, CHUNK_TRIALS, trials - 1):
            u, v = blocks[t // CHUNK_TRIALS]
            got = np.stack([u[:, t % CHUNK_TRIALS], v[:, t % CHUNK_TRIALS]])
            expect = np.random.default_rng(children[t]).uniform(-1.0, 1.0, (2, periods - 1))
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))


# spawn keys of one and of two 32-bit words, both sides of the chunk size
SPAWN_KEYS = [0, 1, 1023, 1024, 2**32 - 1, 2**32, 2**32 + 1]


class TestTrialSeeds:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**256 - 1))
    @example(seed=0)
    @example(seed=2**32)
    @example(seed=2**128 + 7)
    def test_seed_words_match_numpy(self, seed):
        # one-word, multi-word and longer-than-the-pool entropy, in one call
        # that mixes one- and two-word keys
        words = _pcg64_seeds(seed, np.array(SPAWN_KEYS, dtype=np.uint64))
        assert words.shape == (len(SPAWN_KEYS), 4) and words.dtype == np.uint64
        for key, row in zip(SPAWN_KEYS, words):
            expect = np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)
            assert np.array_equal(row, expect)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5])
    def test_generators_spawn_as_numpy(self, seed):
        trials = CHUNK_TRIALS + 2
        gens = list(trial_generators(seed, trials))
        for t in (0, CHUNK_TRIALS + 1):
            real = np.random.SeedSequence(seed, spawn_key=(t,))
            ref = np.random.default_rng(real)
            # twice: the second spawn continues the children count
            for _ in range(2):
                got = [g.random(4) for g in gens[t].spawn(3)]
                expect = [g.random(4) for g in ref.spawn(3)]
                assert all(np.array_equal(a, b) for a, b in zip(got, expect))
            # any other state request is the real sequence's
            seed_seq = gens[t].bit_generator.seed_seq
            assert np.array_equal(seed_seq.generate_state(8), real.generate_state(8))

    def test_generators_pickle(self):
        gen = next(trial_generators(2**64 + 5, 1))
        gen.random(3)
        copy = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(copy.random(4), gen.random(4))
        got = [g.random(4) for g in copy.spawn(2)]
        expect = [g.random(4) for g in gen.spawn(2)]
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    @pytest.mark.parametrize(
        "seed, trials", [(0, True), (True, 2), (-1, 2), (0.0, 2), (0, 2.5), (0, -3)]
    )
    def test_arguments_checked_at_the_call(self, seed, trials):
        # a negative seed has no finite word split (-1 >> 32 == -1)
        with pytest.raises(DomainError):
            trial_generators(seed, trials)


class TestVerifyTheorem:
    def test_positive_growth_small_run(self):
        summary = verify_theorem(make_spec(), trials=300, periods=250, eta_assumed=0.2)
        assert summary.trade_events > 0
        assert summary.mean_dv is not None and summary.mean_dv > 0.0
        assert summary.p_value is not None and summary.p_value < 1e-3

    def test_deterministic(self):
        a = verify_theorem(make_spec(seed=4), trials=50, periods=100)
        b = verify_theorem(make_spec(seed=4), trials=50, periods=100)
        assert a == b

    def test_eta_defaults_to_theta(self):
        summary = verify_theorem(make_spec(), trials=5, periods=50)
        assert summary.eta_assumed == BASE["theta"]
        assert summary.gamma_assumed == BASE["gamma_cap"]

    def test_infinite_tau_inconclusive(self):
        # non-positive assumed eta forces tau = +inf: no events, no verdict
        summary = verify_theorem(make_spec(), trials=20, periods=100, eta_assumed=-1.0)
        assert summary.tau == math.inf
        assert summary.trade_events == 0
        assert summary.mean_dv is None and summary.p_value is None

    def test_eta_above_theta_still_summarizes(self):
        # assumed reversion above the true rate: summary only, no claim made
        summary = verify_theorem(make_spec(), trials=30, periods=100, eta_assumed=0.45)
        assert summary.trade_events >= 0

    def test_exact_mode_uses_larger_tau(self):
        approx = verify_theorem(make_spec(), trials=10, periods=100, mode="approx")
        exact = verify_theorem(make_spec(), trials=10, periods=100, mode="exact")
        assert exact.tau > approx.tau
        assert exact.trade_events <= approx.trade_events

    def test_bins_diagnostic(self):
        summary = verify_theorem(make_spec(), trials=30, periods=100, collect_bins=4)
        assert summary.bin_edges is not None and len(summary.bin_edges) == 5
        assert sum(summary.bin_counts) == summary.trade_events
        # the pooled mean must be the bin-count weighted mean of bin means
        pooled = sum(
            c * m for c, m in zip(summary.bin_counts, summary.bin_mean_dv) if c
        ) / sum(summary.bin_counts)
        assert pooled == pytest.approx(summary.mean_dv, rel=1e-9)

    def test_mode_domain(self):
        with pytest.raises(DomainError):
            verify_theorem(make_spec(), trials=5, periods=50, mode="bogus")

    def test_memory_does_not_grow_with_trials(self):
        # streams and blocks live one chunk at a time: 6 more chunks of
        # trials must not raise the traced peak by 1 MiB (0.9 KiB per trial
        # when every generator was built up front)
        def peak(trials):
            tracemalloc.start()
            try:
                verify_theorem(make_spec(seed=3), trials=trials, periods=250)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * CHUNK_TRIALS) - peak(2 * CHUNK_TRIALS) < 2**20

    def test_trials_domain(self):
        with pytest.raises(DomainError):
            verify_theorem(make_spec(), trials=0)

    @pytest.mark.parametrize(
        "kw", [dict(trials=True), dict(trials=2.5), dict(periods=True), dict(periods=50.0)]
    )
    def test_counts_must_be_ints(self, kw):
        with pytest.raises(DomainError, match="must be an integer"):
            verify_theorem(make_spec(), **{"trials": 5, "periods": 50, **kw})

    @pytest.mark.parametrize("name", ["leverage", "initial_value"])
    @pytest.mark.parametrize("x, match", [
        (10**400, "must be finite and positive"),
        (True, "must be a number"),
        (np.True_, "must be a number"),
    ], ids=["huge-int", "bool", "numpy-bool"])
    def test_leverage_and_value_domain(self, name, x, match):
        # an int beyond the float range raised OverflowError; a bool was 1.0
        with pytest.raises(DomainError, match=f"{name} {match}"):
            verify_theorem(make_spec(), trials=5, periods=50, **{name: x})

    @pytest.mark.parametrize("collect_bins", [True, 2.0, -1])
    def test_collect_bins_domain(self, collect_bins):
        with pytest.raises(DomainError, match="collect_bins must be"):
            verify_theorem(make_spec(), trials=5, periods=50, collect_bins=collect_bins)

    @pytest.mark.parametrize("collect_bins", [0, 4])
    def test_memory_is_one_arena(self, monkeypatch, collect_bins):
        # a 4-chunk run's traced peak is its arena of five (periods,
        # CHUNK_TRIALS) planes, one chunk's traded mask, with bins one
        # chunk's per-event arrays (the profits, the |spread| and the bin
        # index), and under 1 MiB besides. The mask takes a byte per period,
        # fewer than the 8 per traded period the per-event profits took
        periods = 250
        masks = []
        scan = kernels.trade_scan

        def recording(*args, **kwargs):
            on = scan(*args, **kwargs)
            masks.append((on.size, int(np.count_nonzero(on))))
            return on

        monkeypatch.setattr(kernels, "trade_scan", recording)
        spec = make_spec(seed=3)
        verify_theorem(spec, trials=4 * CHUNK_TRIALS, periods=periods, collect_bins=collect_bins)
        tracemalloc.start()
        try:
            verify_theorem(spec, trials=4 * CHUNK_TRIALS, periods=periods,
                           collect_bins=collect_bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arena = 5 * periods * CHUNK_TRIALS * 8
        mask = max(size for size, _ in masks)
        events = max(count for _, count in masks)
        assert len(masks) == 8 and 0 < mask <= 8 * events
        per_chunk = 3 * 8 * events if collect_bins else mask
        assert peak <= arena + per_chunk + 2**20

    def test_chunks_share_one_arena(self, monkeypatch):
        # two full chunks and a one-path last chunk all run on contiguous
        # views of one buffer
        blocks = []
        recursion = kernels.ou_recursion

        def recording(s, w, *args):
            blocks.append((s, w))
            return recursion(s, w, *args)

        monkeypatch.setattr(kernels, "ou_recursion", recording)
        verify_theorem(make_spec(), trials=2 * CHUNK_TRIALS + 1, periods=12)
        arena = blocks[0][0].base
        assert [s.shape for s, _ in blocks] == [(12, CHUNK_TRIALS)] * 2 + [(12, 1)]
        for s, w in blocks:
            assert s.base is arena and w.base is arena
            assert s.flags.c_contiguous and w.flags.c_contiguous

    @pytest.mark.parametrize(
        "kw",
        [
            dict(leverage=-1.0),
            dict(leverage=0.0),
            dict(leverage=math.nan),
            dict(leverage=math.inf),
            dict(initial_value=-5.0),
            dict(initial_value=math.nan),
            dict(collect_bins=-2),
        ],
    )
    def test_argument_domain(self, kw):
        with pytest.raises(DomainError):
            verify_theorem(make_spec(), trials=50, periods=100, **kw)

    @pytest.mark.parametrize("kw, match", [
        # True ran as 1.0; the huge ints raised OverflowError in the thresholds
        (dict(eta_assumed=True), "eta_assumed must be a number"),
        (dict(eta_assumed=10**400), "eta_assumed must be finite"),
        (dict(gamma_assumed=10**400), "gamma_assumed must be finite"),
    ])
    def test_assumed_argument_types(self, kw, match):
        with pytest.raises(DomainError, match=match):
            verify_theorem(make_spec(), trials=50, periods=100, **kw)


class TestOneSidedP:
    # df = count - 1 covers 1, 2, 3, 7, 30, 251, 1e4, 1342194 and 1e7
    @pytest.mark.parametrize(
        "count", [2, 3, 4, 7, 8, 30, 31, 251, 252, 10_000, 10_001, 1_342_195, 10_000_001]
    )
    @pytest.mark.parametrize(
        "t_stat", [s * x for x in (0.02, 0.3, 1.0, 2.5, 4.0, 8.0, 40.0) for s in (1, -1)]
    )
    def test_matches_scipy_t_sf(self, count, t_stat):
        # scipy is the oracle here only: the package computes the tail itself
        stats = pytest.importorskip("scipy.stats")
        # running sums of `count` draws with mean +-1 and the variance giving t_stat
        mean = 1.0 if t_stat > 0 else -1.0
        var = count * (mean / t_stat) ** 2
        total = count * mean
        totsq = var * (count - 1) + count * mean * mean
        got_mean, p = _one_sided_p(count, total, totsq)
        m = total / count
        t = m / math.sqrt((totsq - count * m * m) / (count - 1) / count)
        assert got_mean == m
        expect = float(stats.t.sf(t, count - 1))
        if expect == 0.0:
            assert p == 0.0
        else:
            assert p == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_degenerate_counts(self):
        assert _one_sided_p(0, 0.0, 0.0) == (None, None)
        assert _one_sided_p(1, 2.0, 4.0) == (2.0, None)
        assert _one_sided_p(3, 6.0, 12.0) == (2.0, 0.0)
        # a zero mean is t = 0, the median of any t distribution
        assert _one_sided_p(3, 0.0, 2.0) == (0.0, 0.5)


def _run_python(code: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_leaves_numpy_random_out():
    # numpy.random costs start-up time; trial_generators loads it on first use
    code = "import sys, pairtrade.cli\nprint('numpy.random' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_cli_import_leaves_scipy_out():
    # the runtime is numpy only: neither CLI start-up nor a montecarlo call,
    # p-value included, loads scipy
    code = (
        "import sys, pairtrade.cli\n"
        "assert pairtrade.cli.main(['montecarlo', '--trials', '20', '--periods', '60']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    *payload, loaded = _run_python(code).splitlines()
    assert 0.0 < json.loads("\n".join(payload))["p_value"] < 1.0
    assert loaded == "[]"


LOG_LINEAR = CointegrationSpread(2.0, 0.0)
P0 = PricePoint(100.0, 50.0)


def edge_band(p: float, gamma: float) -> float:
    """The largest band whose top price p e^band (1 + gamma), computed the
    way verify_lemma draws and displaces a price, is finite: bisection over
    the floats."""
    lo, hi = 0.0, 1000.0
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        with np.errstate(over="ignore"):
            top = p * np.exp(np.array([mid]))
            top = top + top * gamma
        lo, hi = (mid, hi) if np.isfinite(top[0]) else (lo, mid)
    return lo


def lemma_draws(p0, gamma, samples, band, seed):
    """The sample points (p1, p2) and displacements verify_lemma draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    logs = rng.uniform(-band, band, size=(2, samples))
    disp = rng.uniform(-gamma, gamma, size=(2, samples))
    return p0.p1 * np.exp(logs[0]), p0.p2 * np.exp(logs[1]), disp


def verify_lemma_arrays(model, p0, gamma, samples, band=1.0, seed=0):
    """verify_lemma with one threshold_exact and one spread_gradient call over
    all samples: the array path of each, where verify_lemma takes the float
    path sample by sample."""
    p1, p2, disp = lemma_draws(p0, gamma, samples, band, seed)
    bound = threshold_exact(model, p1, p2, gamma, eta=1.0)
    g1, g2 = spread_gradient(model, p1, p2)
    s_p = model.value(p1, p2)
    positive = bound > 0.0
    violation, worst, ratio = -math.inf, 0.0, 0.0
    for t1, t2 in ((disp[0], disp[1]), (gamma, gamma), (gamma, -gamma), (-gamma, gamma),
                   (-gamma, -gamma)):
        d1, d2 = p1 * t1, p2 * t2
        remainder = np.abs(model.value(p1 + d1, p2 + d2) - s_p - (g1 * d1 + g2 * d2))
        violation = max(violation, float(np.max(remainder - bound)))
        worst = max(worst, float(np.max(remainder)))
        ratio = max(ratio, float(np.max(remainder[positive] / bound[positive], initial=0.0)))
    return LemmaSummary(samples, gamma, violation, worst, ratio)


class TestVerifyLemma:
    @pytest.mark.parametrize("model", [
        *(CointegrationSpread(beta, 0.3) for beta in (2.0, 1.0, 0.5, 0.0, -0.5, 1.3)),
        RatioSpread(),
    ], ids=["beta2", "beta1", "beta0.5", "beta0", "beta-0.5", "beta1.3", "ratio"])
    def test_matches_the_array_path_bit_for_bit(self, model):
        # every field, compared as the bits of its double; at beta 1.3 the
        # curvature constant max(beta, 1) + max(-beta, 0) is no power of two
        got = verify_lemma(model, P0, 0.05, samples=3_000, band=1.5, seed=11)
        want = verify_lemma_arrays(model, P0, 0.05, samples=3_000, band=1.5, seed=11)
        assert got.samples == want.samples == 3_000
        bits = [(float.hex(a), float.hex(b)) for a, b in zip(astuple(got)[1:], astuple(want)[1:])]
        assert all(a == b for a, b in bits), bits
        # the maxima miss a one-ulp change at most points: each point's
        # bound and gradient, float path against array path
        p1, p2, _ = lemma_draws(P0, 0.05, 3_000, 1.5, 11)
        floats = [(threshold_exact(model, a, b, 0.05, eta=1.0), *spread_gradient(model, a, b))
                  for a, b in zip(p1.tolist(), p2.tolist())]
        arrays = zip(threshold_exact(model, p1, p2, 0.05, eta=1.0).tolist(),
                     *(g.tolist() for g in spread_gradient(model, p1, p2)))
        assert [tuple(map(float.hex, f)) for f in floats] == [tuple(map(float.hex, a)) for a in arrays]

    def test_bound_holds(self):
        summary = verify_lemma(LOG_LINEAR, P0, 0.05, samples=2_000)
        assert summary.max_violation <= 1e-12
        assert 0.0 < summary.max_ratio <= 1.0 + 1e-12

    def test_deterministic(self):
        a, b = (verify_lemma(LOG_LINEAR, P0, 0.05, samples=100) for _ in range(2))
        assert a == b

    def test_zero_displacement_zero_remainder(self):
        m = CointegrationSpread(2.0, 0.0)
        g = m.gradient(100.0, 50.0)
        remainder = abs(m.value(100.0, 50.0) - m.value(100.0, 50.0) - (g[0] * 0.0 + g[1] * 0.0))
        assert remainder == 0.0

    def test_quadratic_scaling_in_gamma(self):
        # remainder and bound both shrink as gamma^2: the worst observed
        # ratio stays bounded while the remainder scale drops ~4x per halving
        remainders = {}
        for g in (0.04, 0.02, 0.01):
            s = verify_lemma(LOG_LINEAR, P0, g, samples=400)
            assert s.max_violation <= 1e-12
            assert s.max_ratio <= 1.0 + 1e-12
            remainders[g] = s.max_remainder
        assert remainders[0.02] < remainders[0.04]
        assert remainders[0.01] < remainders[0.02]
        assert remainders[0.04] / remainders[0.02] == pytest.approx(4.0, rel=0.5)

    def test_samples_domain(self):
        with pytest.raises(DomainError):
            verify_lemma(LOG_LINEAR, P0, 0.05, samples=0)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            verify_lemma(LOG_LINEAR, P0, 1.0, samples=10)

    @pytest.mark.parametrize(
        "kw", [dict(band=math.inf), dict(band=0.0), dict(band=math.nan), dict(seed=-1)]
    )
    def test_argument_domain(self, kw):
        with pytest.raises(DomainError):
            verify_lemma(LOG_LINEAR, P0, 0.05, samples=10, **kw)

    @pytest.mark.parametrize("kw, match", [
        (dict(samples=2.5), "samples must be an integer"),
        (dict(samples=True), "samples must be an integer"),
        (dict(samples=0), "samples must be at least 1"),
        (dict(band=True), "band must be a number"),
        (dict(band=10**400), "band must be finite and positive"),
        (dict(gamma=True), "gamma must be a number"),
        (dict(gamma=np.False_), "gamma must be a number"),
    ])
    def test_argument_types(self, kw, match):
        with pytest.raises(DomainError, match=match):
            verify_lemma(LOG_LINEAR, P0, **{"gamma": 0.05, "samples": 10, **kw})

    def test_band_at_the_float_edge(self):
        # the largest accepted band runs to finite results; the next float up
        # takes p0.p1 = 100 past the largest float and is refused by name
        edge = edge_band(P0.p1, 0.05)
        assert 700.0 < edge < 710.0
        summary = verify_lemma(LOG_LINEAR, P0, 0.05, samples=500, band=edge)
        assert all(math.isfinite(x) for x in astuple(summary))
        assert summary.max_violation <= 1e-12
        refused = r"^band 7\d\d\.\d+ around p0\.p1 = 100\.0 with gamma 0\.05 takes"
        with pytest.raises(DomainError, match=refused):
            verify_lemma(LOG_LINEAR, P0, 0.05, samples=500, band=math.nextafter(edge, math.inf))

    @pytest.mark.parametrize("p0, band, name", [
        # p0 e^band (1 + gamma) overflows, though p0 e^band does not
        (PricePoint(1.75e308, 50.0), 0.001, "p1"),
        (PricePoint(100.0, 1.75e308), 0.001, "p2"),
        # p0 e^-band (1 - gamma) underflows to 0
        (PricePoint(1e-300, 50.0), 100.0, "p1"),
        (PricePoint(100.0, 1e-300), 100.0, "p2"),
    ])
    def test_prices_out_of_the_float_range_refused_before_any_draw(
            self, monkeypatch, p0, band, name):
        def no_draws(*args):
            raise AssertionError("drew before the band check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(DomainError, match=rf"^band {band!r} around p0\.{name} = "):
            verify_lemma(LOG_LINEAR, p0, 0.05, samples=10, band=band)

    @pytest.mark.parametrize("p0", [PricePoint(5e-324, 50.0), PricePoint(50.0, 5e-324)],
                             ids=["p1", "p2"])
    def test_remainder_that_is_not_finite_refused(self, p0):
        # the gradient overflows at a subnormal price, so every remainder is
        # NaN or infinite: no maxima that drop them, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^the first-order remainder is not finite, "
                                                  r"or its bound is NaN, at p1 = \S+, p2 = \S+ "
                                                  r"\(sample 0\)$"):
                verify_lemma(LOG_LINEAR, p0, 0.05, samples=100, band=0.001)

    @pytest.mark.parametrize("name, fault", [
        ("threshold_exact", lambda: math.nan),
        ("spread_gradient", lambda: (math.inf, 1.0)),
    ], ids=["bound", "gradient"])
    def test_first_sample_refused_by_its_prices(self, monkeypatch, name, fault):
        # samples 3 on take a NaN bound or an infinite gradient; the error
        # names sample 3's prices
        calls = iter(range(10))
        real = getattr(synthetic, name)
        monkeypatch.setattr(synthetic, name,
                            lambda *args, **kw: fault() if next(calls) >= 3 else real(*args, **kw))
        p1, p2, _ = lemma_draws(P0, 0.05, 10, 1.0, 0)
        message = (f"the first-order remainder is not finite, or its bound is NaN, at "
                   f"p1 = {float(p1[3])!r}, p2 = {float(p2[3])!r} (sample 3)")
        with pytest.raises(DomainError) as err:
            verify_lemma(LOG_LINEAR, P0, 0.05, samples=10)
        assert str(err.value) == message

    def test_ratio_spread_bound_holds(self):
        # S = p2/p1 - 0.5: the Hessian's magnitude is monotone over the box
        summary = verify_lemma(RatioSpread(), P0, 0.05, samples=2_000)
        assert summary.max_violation <= 0.0
        assert 0.0 < summary.max_ratio <= 1.0

    @pytest.mark.parametrize("band", [1.0, 0.05])
    def test_cos_perturbed_bound_holds(self, band):
        # the curvature changes sign inside the box: a Hessian taken only at
        # the displaced point bounds the remainder 0.00887 at p0 by 0.00315;
        # the generic curvature bound, with xi and d independent, gives 0.0115
        summary = verify_lemma(CosPerturbedSpread(), P0, 0.05, samples=2_000, band=band)
        assert summary.max_violation <= 0.0
