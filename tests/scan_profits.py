"""Per-event profits of kernels.trade_scan against the holdings-form loops.

trade_scan takes a period's profit as v (r on): its return, a function of
the prices alone, times the account value v it was traded at. The loops of
scalar_oracle.py and trading.allocate take it from the holdings,
(lam a1) dp1 + (lam a2) dp2 with lam = leverage v / den. The two forms
round differently, and each path's value carries the difference on to its
later periods. Where the two legs of a profit nearly cancel, the relative
difference of the profit has no useful bound (it reaches 5.7e-11 where
|dv| > 1e-6 on the montecarlo command's defaults), so the tolerance is
stated against the account value the period was traded at: PROFIT_TOL v,
4.5 machine epsilons of v. The largest difference seen is 1.9e-16 v, on the
montecarlo command's defaults (10k trials x 250 periods, seed 1) at
leverage 15. The traded mask and |s| stay exact.
"""

import numpy as np

PROFIT_TOL = 1e-15


def values(dv, v0):
    """The account value each period of a (periods, paths) profit block was
    traded at: v0 plus the running sum of the path's earlier profits, added
    in time order."""
    start = np.full((1, dv.shape[1]), float(v0))
    return np.cumsum(np.concatenate([start, dv[:-1]]), axis=0)


def events(block, on):
    """The traded periods of a (periods, paths) block, path after path and,
    within a path, in time order."""
    return block.T[on.T]


def assert_profits_close(dv, expect, v):
    """Per-event profits within PROFIT_TOL of the account values v."""
    dv, expect = np.asarray(dv), np.asarray(expect)
    assert dv.shape == expect.shape
    excess = np.abs(dv - expect) - PROFIT_TOL * np.abs(v)
    assert np.all(excess <= 0.0), f"profit off by {np.max(excess):.3g} beyond tolerance"
