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

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .domain import DomainError, LengthError, PricePoint, PriceSeries
from .spread import CointegrationSpread, SpreadModel, spread_gradient, spread_value
from .trading import THRESHOLD_MODES, threshold_approx, threshold_exact

# trials simulated side by side; bounds the block arrays of verify_theorem
# (each (periods, CHUNK_TRIALS) array is 2 MB at 250 periods)
CHUNK_TRIALS = 1024


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
        if not (math.isfinite(self.theta) and 0.0 < self.theta < 1.0):
            raise DomainError(f"theta must lie in (0, 1), got {self.theta!r}")
        for name, x in (("sigma_s", self.sigma_s), ("sigma_w", self.sigma_w)):
            if not (math.isfinite(x) and x >= 0.0):
                raise DomainError(f"{name} must be finite and non-negative, got {x!r}")
        for name, x in (("beta_true", self.beta_true), ("mu_true", self.mu_true), ("s0", self.s0)):
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {x!r}")
        if not (math.isfinite(self.gamma_cap) and 0.0 < self.gamma_cap < 1.0):
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


def trial_generators(seed: int, trials: int) -> list[np.random.Generator]:
    """Independent per-trial RNG streams.

    Trial t uses numpy's default generator seeded with child t of
    SeedSequence(seed) (spawn key (t,)). This is the reproducibility
    contract: same (seed, trials) always yields the same streams.
    """
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(trials)]


def _simulate(spec: OUPairSpec, length: int, rngs) -> tuple[np.ndarray, ...]:
    """One path per generator, side by side.

    Generator j draws its own (2, length - 1) uniform block, so a path does
    not depend on which others share its block. Returns the spread and both
    prices, (s, p1, p2), each of shape (length, len(rngs)).
    """
    draws = np.array([rng.uniform(-1.0, 1.0, size=(2, length - 1)) for rng in rngs])
    u, v = np.ascontiguousarray(draws.transpose(1, 2, 0))
    s, w = kernels.ou_recursion(
        u, v, spec.theta, spec.sigma_s, spec.sigma_w, spec.s0, math.log(spec.p0.p1)
    )
    p1 = np.exp(w)
    p2 = np.exp(spec.beta_true * w + (spec.mu_true + s))
    return s, p1, p2


def generate_pair(spec: OUPairSpec, length: int) -> PriceSeries:
    """Generate a synthetic price series of the given length from spec.seed."""
    if length < 2:
        raise LengthError(f"length must be at least 2, got {length}")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    _, p1, p2 = _simulate(spec, length, [rng])
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
    # imported on first use: scipy at module level (scipy.stats ~1 s) slows every CLI start
    from scipy.special import stdtr

    return mean, float(stdtr(count - 1, -t_stat))


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
    CHUNK_TRIALS at a time, each from its own trial_generators stream.
    """
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    if periods < 2:
        raise DomainError(f"periods must be at least 2, got {periods}")
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

    rngs = trial_generators(spec.seed, trials)
    for start in range(0, trials, CHUNK_TRIALS):
        s, p1, p2 = _simulate(spec, periods, rngs[start : start + CHUNK_TRIALS])
        dv, sabs = kernels.trade_scan(model, p1, p2, s, tau, leverage, initial_value)
        count += dv.size
        total += float(np.sum(dv))
        totsq += float(np.dot(dv, dv))
        if use_bins:
            idx = np.clip(np.digitize(sabs, edges) - 1, 0, collect_bins - 1)
            bin_sums += np.bincount(idx, weights=dv, minlength=collect_bins)
            bin_counts += np.bincount(idx, minlength=collect_bins)

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
