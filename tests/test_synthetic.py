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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrade import kernels
from pairtrade.domain import DomainError, LengthError, PricePoint, return_arrays
from pairtrade.estimation import estimate_eta
from pairtrade.spread import CointegrationSpread
from pairtrade.synthetic import (
    CHUNK_TRIALS,
    OUPairSpec,
    _one_sided_p,
    _pcg64_seeds,
    generate_pair,
    trial_generators,
    verify_lemma,
    verify_theorem,
)
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

    @pytest.mark.parametrize("collect_bins", [0, 4])
    def test_memory_is_one_arena(self, monkeypatch, collect_bins):
        # a 4-chunk run's traced peak is its arena of five (periods,
        # CHUNK_TRIALS) planes, one chunk's per-event arrays (the profits, and
        # with bins the |spread| and bin index too) and under 1 MiB besides
        periods = 250
        events = []
        scan = kernels.trade_scan

        def recording(*args, **kwargs):
            dv, sabs = scan(*args, **kwargs)
            events.append(dv.size)
            return dv, sabs

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
        per_event = 8 * (3 if collect_bins else 1)
        assert len(events) == 8 and max(events) > 0
        assert peak <= arena + per_event * max(events) + 2**20

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


class TestVerifyLemma:
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

    def test_ratio_spread_bound_holds(self):
        # S = p2/p1 - 0.5: the Hessian's magnitude is monotone over the box
        summary = verify_lemma(RatioSpread(), P0, 0.05, samples=2_000)
        assert summary.max_violation <= 0.0
        assert 0.0 < summary.max_ratio <= 1.0

    @pytest.mark.parametrize("band", [1.0, 0.05])
    def test_cos_perturbed_bound_holds(self, band):
        # the curvature changes sign inside the box: a Hessian taken only at
        # the displaced point bounds the remainder 0.00887 at p0 by 0.00315;
        # the generic curvature bound, with xi and d independent, gives 0.0112
        summary = verify_lemma(CosPerturbedSpread(), P0, 0.05, samples=2_000, band=band)
        assert summary.max_violation <= 1e-12
