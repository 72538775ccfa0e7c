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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .domain import (
    DomainError, LengthError, PricePoint, PriceSeries, check_count, check_finite, check_fraction,
    check_number, check_positive, check_seed, finite,
)
from .seeding import CHUNK_TRIALS, trial_generators
from .spread import CointegrationSpread, SpreadModel, spread_gradient, spread_value
from .stats import _one_sided_p
from .trading import THRESHOLD_MODES, threshold_approx, threshold_exact


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
        check_fraction("theta", self.theta)
        for name in ("sigma_s", "sigma_w"):
            x = getattr(self, name)
            check_number(name, x)
            if not (finite(x) and x >= 0.0):
                raise DomainError(f"{name} must be finite and non-negative, got {x!r}")
        for name in ("beta_true", "mu_true", "s0"):
            check_finite(name, getattr(self, name))
        check_fraction("gamma_cap", self.gamma_cap)
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
    check_count("length", length, 2, LengthError)
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
    check_count("trials", trials, 1)
    check_count("periods", periods, 2)
    if mode not in THRESHOLD_MODES:
        raise DomainError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    check_positive("leverage", leverage)
    check_positive("initial_value", initial_value)
    check_count("collect_bins", collect_bins, 0)
    eta = spec.theta if eta_assumed is None else eta_assumed
    gamma = spec.gamma_cap if gamma_assumed is None else gamma_assumed
    check_finite("eta_assumed", eta)
    check_finite("gamma_assumed", gamma)

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


def check_price_band(p0: PricePoint, gamma: float, band: float) -> None:
    """Reject a band and p0 that take a price verify_lemma computes,
    p0 e^(+-band) (1 +- gamma), out of the finite positive floats."""
    for name, p in (("p1", p0.p1), ("p2", p0.p2)):
        with np.errstate(over="ignore", under="ignore"):
            hi, lo = p * np.exp([band, -band])
            if not (0.0 < lo - lo * gamma and hi + hi * gamma < math.inf):
                raise DomainError(f"band {band!r} around p0.{name} = {p!r} with gamma {gamma!r} "
                                  "takes a price out of the finite positive floats")


# an overflow is not warned of: its remainder, which max() drops, is refused
@np.errstate(over="ignore", invalid="ignore")
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
    alongside the random draw. A remainder that is not finite, or a NaN
    bound, raises DomainError naming the first such sample's prices.
    """
    check_count("samples", samples, 1)
    check_fraction("gamma", gamma)
    check_positive("band", band)
    check_price_band(p0, gamma, band)
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    logs = rng.uniform(-band, band, size=(2, samples))
    disp = rng.uniform(-gamma, gamma, size=(2, samples))
    p1 = p0.p1 * np.exp(logs[0])
    p2 = p0.p2 * np.exp(logs[1])

    bound, g1, g2 = np.empty((3, samples))
    for i, (a, b) in enumerate(zip(p1.tolist(), p2.tolist())):
        bound[i] = threshold_exact(model, a, b, gamma, eta=1.0)
        g1[i], g2[i] = spread_gradient(model, a, b)
    s_p = spread_value(model, p1, p2)
    max_violation, max_remainder, max_ratio = -math.inf, 0.0, 0.0
    positive = bound > 0.0
    bad = np.isnan(bound)
    # each sample's random displacement, then the four box corners
    g = gamma
    for t1, t2 in ((disp[0], disp[1]), (g, g), (g, -g), (-g, g), (-g, -g)):
        d1 = p1 * t1
        d2 = p2 * t2
        remainder = np.abs(spread_value(model, p1 + d1, p2 + d2) - s_p - (g1 * d1 + g2 * d2))
        bad |= ~np.isfinite(remainder)
        max_violation = max(max_violation, float(np.max(remainder - bound)))
        max_remainder = max(max_remainder, float(np.max(remainder)))
        max_ratio = max(max_ratio, float(np.max(remainder[positive] / bound[positive], initial=0.0)))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"the first-order remainder is not finite, or its bound is NaN, at "
                          f"p1 = {p1[i].item()!r}, p2 = {p2[i].item()!r} (sample {i})")
    return LemmaSummary(
        samples=samples,
        gamma=gamma,
        max_violation=max_violation,
        max_remainder=max_remainder,
        max_ratio=max_ratio,
    )
