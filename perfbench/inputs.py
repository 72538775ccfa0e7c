"""Seeded inputs for the benchmark workloads, made with numpy alone.

The generator here is the benchmark's own and does not call
`pairtrade.generate_pair`, so a change to the program's generator cannot change
what the backtests read. Every pair is a bounded-innovation model:

    s(k+1) = (1 - theta) s(k) + drift + sigma_s u(k),   u ~ U[-1, 1]
    w(k+1) = w(k) + sigma_w v(k),                       v ~ U[-1, 1]
    p1 = exp(w),  p2 = exp(beta w + mu + s)

theta > 0 gives a mean-reverting (cointegrated) pair, theta = 0 a random-walk
spread, and theta = 0 with a drift a trending spread. Innovations are bounded,
so every one-period relative move stays far below 1 and no window of the
backtest is untradeable for want of a move bound; p1 always moves, so no
training window is flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BACKTEST_ROWS = 20_000
BACKTEST_PAIR = dict(theta=0.3, sigma_s=0.012, sigma_w=0.005, beta=2.0, p1_0=100.0, p2_0=50.0)

SCREEN_PAIRS = 36
SCREEN_ROWS = 252
SCREEN_KINDS = ("cointegrated", "random_walk", "trending")


@dataclass(frozen=True)
class PairSpec:
    theta: float
    drift: float
    sigma_s: float
    sigma_w: float
    beta: float
    p1_0: float
    p2_0: float


def simulate(spec: PairSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Price paths (p1, p2) of length n; p2(0) = spec.p2_0 since s(0) = 0."""
    u = rng.uniform(-1.0, 1.0, n - 1).tolist()
    v = rng.uniform(-1.0, 1.0, n - 1)
    s = np.empty(n)
    sk = 0.0
    s[0] = sk
    for k in range(n - 1):
        sk = (1.0 - spec.theta) * sk + spec.drift + spec.sigma_s * u[k]
        s[k + 1] = sk
    w = math.log(spec.p1_0) + np.concatenate(([0.0], np.cumsum(spec.sigma_w * v)))
    mu = math.log(spec.p2_0) - spec.beta * math.log(spec.p1_0)
    return np.exp(w), np.exp(spec.beta * w + mu + s)


def write_csv(path: Path, p1: np.ndarray, p2: np.ndarray) -> None:
    """`date,p1,p2` CSV; prices at full double precision, so a reader gets
    back the exact floats."""
    lines = ["date,p1,p2"]
    lines.extend(f"{k:06d},{a!r},{b!r}" for k, (a, b) in enumerate(zip(p1.tolist(), p2.tolist())))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def backtest_input(seed: int, path: Path) -> None:
    """One long mean-reverting pair."""
    spec = PairSpec(drift=0.0, **BACKTEST_PAIR)
    rng = np.random.default_rng([seed, 1])
    write_csv(path, *simulate(spec, BACKTEST_ROWS, rng))


def screen_specs(rng: np.random.Generator) -> list[PairSpec]:
    """SCREEN_PAIRS pair specs, the three kinds in turn."""
    specs = []
    for i in range(SCREEN_PAIRS):
        kind = SCREEN_KINDS[i % len(SCREEN_KINDS)]
        drift = 0.0
        if kind == "trending":
            drift = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.002, 0.004))
        specs.append(
            PairSpec(
                theta=float(rng.uniform(0.15, 0.4)) if kind == "cointegrated" else 0.0,
                drift=drift,
                sigma_s=float(rng.uniform(0.006, 0.012)),
                sigma_w=float(rng.uniform(0.004, 0.008)),
                beta=float(rng.uniform(0.5, 2.0)),
                p1_0=float(math.exp(rng.uniform(math.log(20.0), math.log(200.0)))),
                p2_0=float(math.exp(rng.uniform(math.log(20.0), math.log(200.0)))),
            )
        )
    return specs


def screen_inputs(seed: int, directory: Path) -> list[Path]:
    """SCREEN_PAIRS short pairs, one CSV each."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i, spec in enumerate(screen_specs(rng)):
        path = directory / f"pair{i:02d}.csv"
        write_csv(path, *simulate(spec, SCREEN_ROWS, rng))
        out.append(path)
    return out
