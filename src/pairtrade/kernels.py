"""Time-major numpy kernels of the Monte Carlo simulation.

A block holds many independent paths side by side: row k is period k and
column j is path j. Each kernel steps down the rows, one period for all paths
at a time, so every path sees the scalar recursion's operations in the
scalar recursion's order and gets the same doubles a one-path loop would.
"""

from __future__ import annotations

import numpy as np


def ou_recursion(u, v, theta, sigma_s, sigma_w, s0, w0):
    """Drive the spread and log-price recursions with innovation blocks.

        s(k+1) = (1 - theta) s(k) + sigma_s u(k)
        w(k+1) = w(k) + sigma_w v(k)

    u and v have shape (steps, paths). Returns (s, w) of shape
    (steps + 1, paths), row 0 holding the initial state.
    """
    u = np.asarray(u, dtype=float)
    steps, paths = u.shape
    one_minus_theta = 1.0 - theta
    shocks = sigma_s * u
    s = np.empty((steps + 1, paths))
    s[0] = s0
    for k in range(steps):
        np.multiply(s[k], one_minus_theta, out=s[k + 1])
        s[k + 1] += shocks[k]
    w = np.empty((steps + 1, paths))
    w[0] = w0
    np.multiply(sigma_w, v, out=w[1:])
    # add.accumulate runs down axis 0 one row at a time: w(k) + sigma_w v(k)
    np.cumsum(w, axis=0, out=w)
    return s, w


def trade_scan(p1, p2, s, beta, tau, leverage, v0):
    """Run the fully-invested threshold rule down every path of a block.

    p1, p2 and s have shape (periods, paths). Every path starts with account
    value v0 and trades the log-linear spread with slope beta at threshold
    tau. The last period is never traded: its profit would need period
    `periods`. Returns (dv, sabs): the profit and |spread| of every traded
    period, path after path and, within a path, in time order.
    """
    sabs = np.abs(s[:-1])
    on = sabs > tau
    v = np.full(s.shape[1], float(v0))
    dv = np.empty(on.shape)
    for k in range(len(on)):
        p1k, p2k = p1[k], p2[k]
        g1 = -beta / p1k
        g2 = 1.0 / p2k
        lam = leverage * v / (np.abs(g1) * p1k + np.abs(g2) * p2k)
        m = -lam * np.where(s[k] > 0.0, 1.0, -1.0)  # -lam sign(s)
        np.add(m * g1 * (p1[k + 1] - p1k), m * g2 * (p2[k + 1] - p2k), out=dv[k])
        np.add(v, dv[k], out=v, where=on[k])
    return dv.T[on.T], sabs.T[on.T]
