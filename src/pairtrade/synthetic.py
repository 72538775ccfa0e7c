"""Bounded-innovation synthetic pair generator and verification harnesses.

The generator simulates a mean-reverting spread s(k) over a driving random
walk w(k) = log p1(k), with bounded uniform innovations:

    s(k+1) = (1 - theta) s(k) + sigma_s u(k),   u ~ U[-1, 1]
    w(k+1) = w(k) + sigma_w v(k),               v ~ U[-1, 1]
    log p2(k) = beta_true w(k) + mu_true + s(k)

Bounded innovations keep every one-period relative return inside a hard cap:
|s(k)| never exceeds B = max(|s0|, sigma_s / theta), so each log increment is
bounded and the per-period return of each price stays within gamma_cap
whenever the scales satisfy the feasibility inequalities checked at
construction. For this spread the conditional mean pull is exactly
E[sign(s) (s(k+1) - s(k)) | s(k)] = -theta |s(k)|, so theta is the true
reversion rate.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .domain import DomainError, LengthError, PricePoint, PriceSeries, finite
from .spread import CointegrationSpread, SpreadModel, spread_gradient, spread_value
from .trading import THRESHOLD_MODES, threshold_approx, threshold_exact

# trials simulated side by side; bounds verify_theorem's arena and the
# generators alive at once (each (periods, CHUNK_TRIALS) plane is 2 MB at
# 250 periods)
CHUNK_TRIALS = 1024


def _check_count(name: str, n, least: int, error: type[ValueError]) -> None:
    """Reject anything but an int (not a bool) of at least least."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise error(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise error(f"{name} must be at least {least}, got {n}")


def check_seed(seed) -> None:
    """Reject anything but a non-negative int, the seeds SeedSequence takes."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class OUPairSpec:
    """Parameters of the synthetic pair generator.

    Construction validates feasibility: worst-case log increments must fit
    inside log(1 + gamma_cap) for both prices, otherwise some path could
    break the return cap. Infeasible scales raise DomainError with the
    offending bound in the message.

    p0.p1 seeds the driving log-price walk. p0.p2 is a reference price for
    evaluating the thresholds; the generated p2(0) itself is pinned by the
    identity log p2 = beta_true log p1 + mu_true + s and generally differs
    from p0.p2 unless mu_true is chosen to match.
    """

    theta: float
    sigma_s: float
    sigma_w: float
    beta_true: float
    mu_true: float = 0.0
    gamma_cap: float = 0.05
    s0: float = 0.0
    p0: PricePoint = field(default_factory=lambda: PricePoint(100.0, 50.0))
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("theta", "sigma_s", "sigma_w", "beta_true", "mu_true", "gamma_cap", "s0"):
            x = getattr(self, name)
            if np.asarray(x).dtype == bool:
                raise DomainError(f"{name} must be a number, got {x!r}")
        if not (finite(self.theta) and 0.0 < self.theta < 1.0):
            raise DomainError(f"theta must lie in (0, 1), got {self.theta!r}")
        for name, x in (("sigma_s", self.sigma_s), ("sigma_w", self.sigma_w)):
            if not (finite(x) and x >= 0.0):
                raise DomainError(f"{name} must be finite and non-negative, got {x!r}")
        for name, x in (("beta_true", self.beta_true), ("mu_true", self.mu_true), ("s0", self.s0)):
            if not finite(x):
                raise DomainError(f"{name} must be finite, got {x!r}")
        if not (finite(self.gamma_cap) and 0.0 < self.gamma_cap < 1.0):
            raise DomainError(f"gamma_cap must lie in (0, 1), got {self.gamma_cap!r}")
        check_seed(self.seed)
        # worst-case |delta log p1| and |delta log p2| per period against the
        # largest admissible |log increment|, with safety slack
        b1 = self.sigma_w
        b2 = abs(self.beta_true) * self.sigma_w + self.theta * self.spread_bound + self.sigma_s
        budget = math.log1p(self.gamma_cap) * (1.0 - 1e-9)
        if b1 > budget or b2 > budget:
            raise DomainError(
                "infeasible scales: worst-case log increments "
                f"(p1: {b1:.6g}, p2: {b2:.6g}) exceed log1p(gamma_cap) = {budget:.6g}; "
                "reduce sigma_s / sigma_w or raise gamma_cap"
            )

    @property
    def spread_bound(self) -> float:
        """B with |s(k)| <= B for all k."""
        drift_cap = self.sigma_s / self.theta
        return max(abs(self.s0), drift_cap)


# numpy's SeedSequence hash, O'Neill's seed_seq scheme with numpy's
# constants: a pool of four 32-bit words and two multiplicative hash sequences
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_sequence(init: int, mult: int):
    """SeedSequence's hashmix: each call hashes a uint32 value (or column)
    with the next constant of the sequence init * mult**k mod 2**32."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    # SeedSequence's mix of two pool words
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _pcg64_seeds(seed: int, keys: np.ndarray) -> np.ndarray:
    """PCG64 seed words of SeedSequence(seed, spawn_key=(key,)) for each of
    the uint64 keys, as an (n, 4) uint64 array.

    Row i equals SeedSequence(seed, spawn_key=(keys[i],)).generate_state(4,
    np.uint64) bit for bit: the assembled entropy (the seed's 32-bit words,
    zero-padded to the pool size, then the key's words) goes through
    mix_entropy and generate_state once, as uint32 column arithmetic. The
    seed's words hash to the same pool for every key; keys of 2**32 and up
    have a second word, absorbed only in their rows.
    """
    hashmix = _hash_sequence(_INIT_A, _MULT_A)

    def absorb(pool, word):
        return [_mix(p, hashmix(word)) for p in pool]

    # the seed's 32-bit words, least significant first, zero-padded to the
    # pool as SeedSequence pads them whenever a spawn key follows
    run = [seed & _MASK32]
    while seed := seed >> 32:
        run.append(seed & _MASK32)
    run += [0] * (_POOL_WORDS - len(run))
    with np.errstate(over="ignore"):
        pool = [hashmix(np.uint32(w)) for w in run[:_POOL_WORDS]]
        for src in range(_POOL_WORDS):
            for dst in range(_POOL_WORDS):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for w in run[_POOL_WORDS:]:
            pool = absorb(pool, np.uint32(w))
        pool = absorb(pool, (keys & _MASK32).astype(np.uint32))
        high = (keys >> 32).astype(np.uint32)
        wide = high != 0
        if wide.any():
            pool = [np.where(wide, q, p) for p, q in zip(pool, absorb(pool, high))]
        # generate_state(4, np.uint64): eight words read cyclically from the pool
        hashmix = _hash_sequence(_INIT_B, _MULT_B)
        state = [hashmix(pool[i % _POOL_WORDS]) for i in range(2 * _POOL_WORDS)]
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _trial_seed_type() -> type:
    """The seed sequence class trial_generators hands PCG64, defined on first
    use: subclassing numpy's interface imports numpy.random, which the
    package's import does not load."""
    from numpy.random.bit_generator import ISpawnableSeedSequence

    class TrialSeed(ISpawnableSeedSequence):
        """SeedSequence(seed, spawn_key=(key,)) with PCG64's seed words
        already computed; the real sequence is built only to spawn or to
        generate any other state."""

        def __init__(self, seed: int, key: int, words: np.ndarray) -> None:
            self._seed, self._key, self._words = seed, key, words
            self._sequence = None

        def _real(self) -> np.random.SeedSequence:
            if self._sequence is None:
                self._sequence = np.random.SeedSequence(self._seed, spawn_key=(self._key,))
            return self._sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == _POOL_WORDS and np.dtype(dtype) == np.uint64:
                return self._words
            return self._real().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self._real().spawn(n_children)

        def __reduce__(self):
            # pickles as the sequence it stands for (the class is local)
            return self._real().__reduce__()

    return TrialSeed


def trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """Independent per-trial RNG streams, as an iterator that builds each
    generator only when it is reached.

    Trial t uses numpy's default generator seeded with
    SeedSequence(seed, spawn_key=(t,)), which is child t of
    SeedSequence(seed).spawn(trials): same entropy, spawn key and pool size.
    This is the reproducibility contract: same (seed, trials) always yields
    the same streams. seed and trials are checked at the call, not on first
    use.

    The PCG64 seed words of CHUNK_TRIALS trials at a time come from one
    vectorized pass of SeedSequence's hash (_pcg64_seeds), and each trial's
    PCG64 takes them through a small ISpawnableSeedSequence, so numpy still
    seeds PCG64 itself. Its spawn builds the real SeedSequence(seed,
    spawn_key=(t,)) when called, so Generator.spawn gives the same children
    as default_rng(SeedSequence(seed, spawn_key=(t,))).spawn.
    """
    check_seed(seed)
    _check_count("trials", trials, 1, DomainError)
    return _trial_streams(seed, trials)


def _trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    from numpy.random import PCG64, Generator

    trial_seed = _trial_seed_type()
    for start in range(0, trials, CHUNK_TRIALS):
        keys = np.arange(start, min(start + CHUNK_TRIALS, trials), dtype=np.uint64)
        for t, words in zip(range(start, trials), _pcg64_seeds(seed, keys)):
            yield Generator(PCG64(trial_seed(seed, t, words)))


def _simulate(spec: OUPairSpec, rngs, block: np.ndarray) -> tuple[np.ndarray, ...]:
    """One path per generator, side by side, computed in place in block.

    block is a C-contiguous float array of shape (>= 4, length, n), its
    planes overwritten, and rngs yields n generators, each dropped once it
    has drawn. Generator j draws its own (2, length - 1) uniform block into
    the memory of planes 0 and 1, so a path does not depend on which others
    share its block. Returns the spread and both prices, (s, p1, p2), as
    planes 2, 3 and 0; plane 1 is left as scratch.
    """
    _, length, n = block.shape
    draws = block[:2].reshape(-1)[: n * 2 * (length - 1)].reshape(n, 2, length - 1)
    for row, rng in zip(draws, rngs):
        rng.random(out=row)
    p2, spare, s, w = block[:4]
    # 2U - 1 is uniform(-1, 1)'s own arithmetic (2U is exact), so the doubles
    # match; the doubling is the transpose into time-major innovation rows
    for plane, uniforms in ((s, draws[:, 0]), (w, draws[:, 1])):
        np.multiply(uniforms.T, 2.0, out=plane[1:])
        plane[1:] -= 1.0
    kernels.ou_recursion(
        s, w, spec.theta, spec.sigma_s, spec.sigma_w, spec.s0, math.log(spec.p0.p1)
    )
    np.multiply(w, spec.beta_true, out=p2)
    p2 += np.add(s, spec.mu_true, out=spare)
    np.exp(p2, out=p2)
    return s, np.exp(w, out=w), p2


def generate_pair(spec: OUPairSpec, length: int) -> PriceSeries:
    """Generate a synthetic price series of the given length from spec.seed."""
    _check_count("length", length, 2, LengthError)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    _, p1, p2 = _simulate(spec, [rng], np.empty((4, length, 1)))
    dates = tuple(f"{k:08d}" for k in range(length))
    return PriceSeries(dates, p1[:, 0], p2[:, 0])


@dataclass(frozen=True)
class TheoremSummary:
    """Aggregate result of the expected-growth Monte Carlo run."""

    trials: int
    periods: int
    mode: str
    tau: float
    tau_exact: float
    tau_approx: float
    eta_assumed: float
    gamma_assumed: float
    trade_events: int
    mean_dv: float | None
    p_value: float | None
    bin_edges: tuple[float, ...] | None = None
    bin_counts: tuple[int, ...] | None = None
    bin_mean_dv: tuple[float, ...] | None = None


# Student's t tail as 1/2 I_x(df/2, 1/2) with x = df / (df + t^2): the
# incomplete beta continued fraction of Press et al., Numerical Recipes (3rd
# ed., 2007), sec. 6.4, summed by the modified Lentz algorithm (Lentz,
# Applied Optics 15(3), 1976)
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_LENTZ_TINY = 1e-300
_LENTZ_TERMS = 10_000


def _lgamma_half_step(a: float) -> float:
    """lgamma(a + 1/2) - lgamma(a) for a > 0.

    The plain difference of two lgamma values near a log a loses about 1e-9
    relative at a = 5e5. Instead a is raised to at least 20 by the recurrence
    Gamma(a + 3/2) / Gamma(a + 1) = (1 + 1/(2a)) Gamma(a + 1/2) / Gamma(a),
    and the asymptotic series 1/2 log a + sum (2^(1-n) - 2) B_n / (n (n-1) a^(n-1))
    over even n (B_n the Bernoulli numbers) is summed to n = 10; the first
    omitted term is below 2e-17 at a = 20.
    """
    shift = 0.0
    while a < 20.0:
        shift += math.log1p(0.5 / a)
        a += 1.0
    r = 1.0 / (a * a)
    series = (-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 + r * (-31 / 18432))))) / a
    return 0.5 * math.log(a) + series - shift


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction cf of I_x(a, b) = x^a y^b / (a B(a, b)) cf, y = 1 - x.

    Numerical Recipes' fraction 1/(1 + d1/(1 + d2/(1 + ...))) is summed by
    its odd part, 1/(c0 + e1/(c1 + e2/(c2 + ...))) with c_m = 1 + d_2m + d_2m+1
    and e_m = -d_2m-1 d_2m, because at x near 1 and large a every 1 + d_2m+1
    is a difference of two numbers near 1 (1e-9 relative lost at df = 1e7).
    Each c_m is formed from whichever of x and y makes it a sum of
    non-negative terms.
    """
    # c_0 = 1 + d1 = 1 - (a + b) x / (a + 1) = ((1 - b) + (a + b) y) / (a + 1)
    c0 = ((1.0 - b) + (a + b) * y) if b <= 1.0 else (a + 1.0) - (a + b) * x
    g = c0 / (a + 1.0)
    if abs(g) < _LENTZ_TINY:
        g = _LENTZ_TINY
    c, d = g, 0.0
    for m in range(1, _LENTZ_TERMS):
        den = (a + 2 * m - 1.0) * (a + 2 * m + 1.0)
        # c_m = 1 - dy x / den = (cy + dy y) / den, with cy + dy = den
        cy = a * (2 * m + 1.0 - b) + 2.0 * m * m + b - 1.0
        dy = a * a + a * (b + 2 * m - 1.0) + 2.0 * m * m - b
        cm = (cy + dy * y) / den if cy >= 0.0 and dy >= 0.0 else 1.0 - dy * x / den
        em = (m * (b - m) * (a + m - 1.0) * (a + b + m - 1.0) * x * x
              / ((a + 2 * m) * (a + 2 * m - 2.0) * (a + 2 * m - 1.0) ** 2))
        d = cm + em * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = cm + em / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        g *= delta
        if abs(delta - 1.0) <= 2.0**-53:
            return 1.0 / g
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df > 0 degrees of freedom, in Python floats.

    Matches scipy.special.stdtr(df, -t) to 1e-13 relative wherever the tail
    is above 1e-50; deeper in the tail the error of either grows as
    |log p| 2^-53, the conditioning of p on t. Like stdtr it is 0.0 where
    the factor x^a y^(1/2) / B(a, 1/2) below is under the smallest normal
    float (stdtr's cut sits within a few percent of that factor). Meant for
    df below about 1e15, where a + 1 still differs from a = df / 2.
    """
    if t == 0.0:
        return 0.5
    t2 = t * t
    a = 0.5 * df
    x = df / (df + t2)
    y = t2 / (df + t2)
    # log of x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) Gamma(1/2) / Gamma(a + 1/2)
    log_front = (
        -a * math.log1p(t2 / df)
        + math.log(abs(t)) - 0.5 * math.log(df + t2)
        + _lgamma_half_step(a) - _HALF_LOG_PI
    )
    if x < (a + 1.0) / (a + 2.5):
        front = math.exp(log_front)
        tail = 0.5 * front * _beta_cf(a, 0.5, x, y) / a if front >= sys.float_info.min else 0.0
    else:
        # 1/2 I_x(a, 1/2) = 1/2 (1 - I_y(1/2, a)), where the fraction converges
        tail = 0.5 - math.exp(log_front) * _beta_cf(0.5, a, y, x)
    return tail if t > 0.0 else 1.0 - tail


def _one_sided_p(count: int, total: float, totsq: float) -> tuple[float | None, float | None]:
    """Mean and one-sided p-value for H0: mean <= 0, from running sums."""
    if count == 0:
        return None, None
    mean = total / count
    if count == 1:
        return mean, None
    var = (totsq - count * mean * mean) / (count - 1)
    if var <= 0.0:
        return mean, (0.0 if mean > 0.0 else 1.0)
    t_stat = mean / math.sqrt(var / count)
    return mean, _t_sf(t_stat, count - 1)


def verify_theorem(
    spec: OUPairSpec,
    trials: int = 10_000,
    periods: int = 250,
    eta_assumed: float | None = None,
    gamma_assumed: float | None = None,
    mode: str = "approx",
    leverage: float = 1.0,
    initial_value: float = 10_000.0,
    collect_bins: int = 0,
) -> TheoremSummary:
    """Monte Carlo check that traded periods have positive expected profit.

    Each trial generates an independent path and runs the threshold rule with
    the true (beta, mu) spread. eta_assumed defaults to theta (the exact
    reversion rate of this generator) and gamma_assumed to gamma_cap. Both
    threshold variants are price-independent for the log-linear family, so
    they are evaluated once at p0. Per-event profits are pooled across trials
    and tested one-sided against mean <= 0. Trials are simulated
    CHUNK_TRIALS at a time, each from its own trial_generators stream, in
    one arena that every chunk reuses, so memory is O(CHUNK_TRIALS)
    whatever the number of trials.
    """
    _check_count("trials", trials, 1, DomainError)
    _check_count("periods", periods, 2, DomainError)
    if mode not in THRESHOLD_MODES:
        raise DomainError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    for name, x in (("leverage", leverage), ("initial_value", initial_value)):
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"{name} must be finite and positive, got {x!r}")
    if not (isinstance(collect_bins, int) and collect_bins >= 0):
        raise DomainError(f"collect_bins must be a non-negative integer, got {collect_bins!r}")
    eta = spec.theta if eta_assumed is None else eta_assumed
    gamma = spec.gamma_cap if gamma_assumed is None else gamma_assumed

    model = CointegrationSpread(spec.beta_true, spec.mu_true)
    tau_e = threshold_exact(model, spec.p0.p1, spec.p0.p2, gamma, eta)
    tau_a = threshold_approx(model, spec.p0.p1, spec.p0.p2, gamma, eta)
    tau = tau_a if mode == "approx" else tau_e

    count = 0
    total = 0.0
    totsq = 0.0

    use_bins = collect_bins > 0 and math.isfinite(tau)
    if use_bins:
        hi = max(spec.spread_bound, tau * (1.0 + 1e-9))
        edges = np.linspace(tau, hi, collect_bins + 1)
        bin_sums = np.zeros(collect_bins)
        bin_counts = np.zeros(collect_bins, dtype=np.int64)

    # every chunk runs in one arena of five (periods, CHUNK_TRIALS) planes:
    # the spread, both prices, a spare plane and the trade scan's profits
    arena = np.empty((5, periods, min(trials, CHUNK_TRIALS)))
    rngs = trial_generators(spec.seed, trials)
    for start in range(0, trials, CHUNK_TRIALS):
        n = min(CHUNK_TRIALS, trials - start)
        # a shorter last chunk packs its planes into the front of the arena
        block = np.ndarray((len(arena), periods, n), buffer=arena)
        s, p1, p2 = _simulate(spec, itertools.islice(rngs, n), block)
        dv, sabs = kernels.trade_scan(
            model, p1, p2, s, tau, leverage, initial_value,
            out=(block[1, :-1], block[4, :-1]), gather_sabs=use_bins,
        )
        count += dv.size
        total += float(np.sum(dv))
        totsq += float(np.dot(dv, dv))
        if use_bins:
            idx = np.digitize(sabs, edges)
            idx -= 1
            np.clip(idx, 0, collect_bins - 1, out=idx)
            bin_sums += np.bincount(idx, weights=dv, minlength=collect_bins)
            bin_counts += np.bincount(idx, minlength=collect_bins)
            del idx
        # one chunk's event arrays alive at a time, not two
        del dv, sabs

    mean, p_value = _one_sided_p(count, total, totsq)
    bins_kw = {}
    if use_bins:
        means = tuple(
            float(bin_sums[i] / bin_counts[i]) if bin_counts[i] else math.nan
            for i in range(collect_bins)
        )
        bins_kw = dict(
            bin_edges=tuple(float(e) for e in edges),
            bin_counts=tuple(int(c) for c in bin_counts),
            bin_mean_dv=means,
        )
    return TheoremSummary(
        trials=trials,
        periods=periods,
        mode=mode,
        tau=tau,
        tau_exact=tau_e,
        tau_approx=tau_a,
        eta_assumed=eta,
        gamma_assumed=gamma,
        trade_events=count,
        mean_dv=mean,
        p_value=p_value,
        **bins_kw,
    )


@dataclass(frozen=True)
class LemmaSummary:
    """Aggregate result of the approximation-error Monte Carlo run."""

    samples: int
    gamma: float
    max_violation: float
    max_remainder: float
    max_ratio: float


def verify_lemma(
    model: SpreadModel,
    p0: PricePoint,
    gamma: float,
    samples: int = 10_000,
    band: float = 1.0,
    seed: int = 0,
) -> LemmaSummary:
    """Monte Carlo check of the curvature bound on the linearization error of
    any spread model.

    Draws price points log-uniformly within exp(+-band) of p0 and admissible
    displacements inside the gamma box from SeedSequence(seed), then compares
    the exact first-order remainder of the spread against the worst-case
    curvature bound. The bound equals eta * tau_exact for any positive eta,
    which cancels to a rate-free quantity; it is evaluated here via tau_exact
    at eta = 1. The four box corners of each point are always checked
    alongside the random draw.
    """
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not (math.isfinite(band) and band > 0.0):
        raise DomainError(f"band must be finite and positive, got {band!r}")
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    logs = rng.uniform(-band, band, size=(2, samples))
    disp = rng.uniform(-gamma, gamma, size=(2, samples))
    p1 = p0.p1 * np.exp(logs[0])
    p2 = p0.p2 * np.exp(logs[1])

    bound = np.empty(samples)
    g1 = np.empty(samples)
    g2 = np.empty(samples)
    for i, (a, b) in enumerate(zip(p1.tolist(), p2.tolist())):
        bound[i] = threshold_exact(model, a, b, gamma, eta=1.0)
        g1[i], g2[i] = spread_gradient(model, a, b)
    s_p = spread_value(model, p1, p2)
    max_violation = -math.inf
    max_remainder = 0.0
    max_ratio = 0.0
    positive = bound > 0.0
    # each sample's random displacement, then the four box corners
    g = gamma
    for t1, t2 in ((disp[0], disp[1]), (g, g), (g, -g), (-g, g), (-g, -g)):
        d1 = p1 * t1
        d2 = p2 * t2
        remainder = np.abs(spread_value(model, p1 + d1, p2 + d2) - s_p - (g1 * d1 + g2 * d2))
        max_violation = max(max_violation, float(np.max(remainder - bound)))
        max_remainder = max(max_remainder, float(np.max(remainder)))
        max_ratio = max(max_ratio, float(np.max(remainder[positive] / bound[positive], initial=0.0)))
    return LemmaSummary(
        samples=samples,
        gamma=gamma,
        max_violation=max_violation,
        max_remainder=max_remainder,
        max_ratio=max_ratio,
    )
