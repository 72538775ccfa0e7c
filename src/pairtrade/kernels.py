"""Time-major numpy kernels of the Monte Carlo simulation.

A block holds many independent paths side by side: row k is period k and
column j is path j. Each kernel steps down the rows, one period for all paths
at a time, so every path sees the scalar recursion's operations in the
scalar recursion's order and gets the same doubles a one-path loop would.

Both kernels work in blocks the caller owns, so a caller that reuses one
set of blocks (verify_theorem's arena) allocates no block per call:
ou_recursion overwrites its innovation blocks with the paths, and
trade_scan writes |s| and every period's profit into its `out` blocks.
Only the per-event results, the traded mask and one-row temporaries are
allocated.

The one exception to one implementation per kernel: ou_recursion steps a
one-path block over Python floats, with the same operations in the same
order, because two ufunc calls on a 1-element row per period cost several
times the arithmetic (generate_pair runs one path of up to 100k periods).
"""

from __future__ import annotations

import numpy as np

from .spread import StationaryPointError


def ou_recursion(s, w, theta, sigma_s, sigma_w, s0, w0):
    """Drive the spread and log-price recursions in place.

        s(k+1) = (1 - theta) s(k) + sigma_s u(k)
        w(k+1) = w(k) + sigma_w v(k)

    s and w are float blocks of shape (steps + 1, paths) whose rows 1..steps
    hold the innovations u(k) and v(k) on entry. Each is overwritten by its
    paths, row 0 by the initial state, and returned as (s, w).
    """
    steps = len(s) - 1
    paths = s.shape[1]
    one_minus_theta = 1.0 - theta
    shocks = s[1:]
    shocks *= sigma_s
    s[0] = s0
    if paths == 1:
        sk = float(s[0, 0])
        path = []
        for shock in shocks[:, 0].tolist():
            sk = sk * one_minus_theta + shock
            path.append(sk)
        s[1:, 0] = path
    else:
        # shock + (1 - theta) s(k): the same double as the other order
        pull = np.empty(paths)
        for k in range(steps):
            np.multiply(s[k], one_minus_theta, out=pull)
            s[k + 1] += pull
    w[1:] *= sigma_w
    w[0] = w0
    # add.accumulate runs down axis 0 one row at a time: w(k) + sigma_w v(k)
    np.cumsum(w, axis=0, out=w)
    return s, w


def trade_scan(model, p1, p2, s, tau, leverage, v0, *, out, gather_sabs=True):
    """Run the fully-invested threshold rule down every path of a block.

    p1, p2 and s have shape (periods, paths). Every path starts with account
    value v0 and trades against the spread direction whenever |s| > tau;
    the holdings of period k follow model.gradient(p1[k], p2[k]). tau is a
    float or any array that broadcasts against s[:-1]; a (periods - 1, 1)
    column gives each period its own threshold. The last period is never
    traded: its profit would need period `periods`. Returns (dv, sabs): the
    profit and |spread| of every traded period, path after path and, within
    a path, in time order; sabs is None when gather_sabs is false.

    out is a pair of float blocks shaped like s[:-1] that receive |s| and
    every period's profit, traded or not.

    A gradient that vanishes (or is not finite) at any point of the block
    raises StationaryPointError, traded or not.
    """
    sabs, dv = out
    np.abs(s[:-1], out=sabs)
    on = sabs > tau
    v = np.full(s.shape[1], float(v0))
    # a stationary point divides by zero below; the check after the loop reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(on)):
            p1k, p2k = p1[k], p2[k]
            g1, g2 = model.gradient(p1k, p2k)
            lam = leverage * v / (np.abs(g1) * p1k + np.abs(g2) * p2k)
            m = -lam * np.where(s[k] > 0.0, 1.0, -1.0)  # -lam sign(s)
            np.add(m * g1 * (p1[k + 1] - p1k), m * g2 * (p2[k + 1] - p2k), out=dv[k])
            np.add(v, dv[k], out=v, where=on[k])
    if not np.isfinite(dv).all():
        k, j = np.argwhere(~np.isfinite(dv))[0]
        raise StationaryPointError(
            f"spread gradient vanishes or is not finite at ({p1[k, j]}, {p2[k, j]}), "
            f"period {k} of path {j}"
        )
    events = on.T
    return dv.T[events], (sabs.T[events] if gather_sabs else None)
