"""Time-major numpy kernels of the Monte Carlo simulation.

A block holds many independent paths side by side: row k is period k and
column j is path j. Each kernel steps down the rows, one period for all paths
at a time, so a path does not depend on which others share its block.
ou_recursion makes the scalar recursion's operations in the scalar
recursion's order and gets the same doubles a one-path loop would.
trade_scan runs the threshold rule in returns form: a period's return does
not depend on the account value, so it runs in block calls over tiles of
TILE periods, and only the value steps row by row. Its profits differ from
the holdings-form loop's in the last bits (tests/scalar_oracle.py keeps
that loop as the reference, with a stated tolerance).

Both kernels work in blocks the caller owns, so a caller that reuses one
set of blocks (verify_theorem's arena) allocates no block per call:
ou_recursion overwrites its innovation blocks with the paths, and
trade_scan writes |s| and every period's profit into its `out` blocks.
Only the traded mask, one-row temporaries and trade_scan's two (TILE,
paths) tile planes, once per call, are allocated.

The one exception to one implementation per kernel: ou_recursion steps a
one-path block over Python floats, with the same operations in the same
order, because two ufunc calls on a 1-element row per period cost several
times the arithmetic (generate_pair runs one path of up to 100k periods).
"""

from __future__ import annotations

import numpy as np

from .spread import StationaryPointError

# periods per tile of trade_scan's block passes; at 1024 paths (a chunk of
# seeding.CHUNK_TRIALS) each of its two tile planes is 128 KB
TILE = 16


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
    w[1:] *= sigma_w
    w[0] = w0
    if paths == 1:
        sk = float(s[0, 0])
        path = []
        for shock in shocks[:, 0].tolist():
            sk = sk * one_minus_theta + shock
            path.append(sk)
        s[1:, 0] = path
        # w(k) + sigma_w v(k) down the one column, which is contiguous
        np.cumsum(w, axis=0, out=w)
    else:
        # shock + (1 - theta) s(k): the same double as the other order. w
        # accumulates row by row too: cumsum over axis 0 of a C-contiguous
        # block walks it column by column, several times slower
        pull = np.empty(paths)
        for k in range(steps):
            np.multiply(s[k], one_minus_theta, out=pull)
            s[k + 1] += pull
            w[k + 1] += w[k]
    return s, w


def trade_scan(model, p1, p2, s, tau, leverage, v0, *, out):
    """Run the fully-invested threshold rule down every path of a block.

    p1, p2 and s have shape (periods, paths). Every path starts with account
    value v0 and trades against the spread direction whenever |s| > tau;
    the holdings of period k follow model.gradient(p1[k], p2[k]). tau is a
    float or any array that broadcasts against s[:-1]; a (periods - 1, 1)
    column gives each period its own threshold. The last period is never
    traded: its profit would need period `periods`. Returns the traded
    mask, |s| > tau, a bool block shaped like s[:-1].

    out is a pair of float blocks shaped like s[:-1] that receive |s| and
    every period's profit; an untraded period's profit is +-0.

    A gradient that vanishes (or is not finite) at any point of the block
    raises StationaryPointError, traded or not, naming the first such
    period and, within it, the first such path.

    The rule runs in returns form. A period's return

        r = leverage (a1 dp1 + a2 dp2) / den

    with den = |g1| p1 + |g2| p2 and the sign-flipped gradient
    a = -sign(s) g does not depend on the account value v. So r, times the
    traded mask, runs per tile of TILE periods in block calls (one
    model.gradient call per tile, on (rows, paths) price blocks), straight
    into the tile's rows of the profit block. v then steps down the tile in
    two row calls per period:

        dv = v (r on)
        v += dv

    so each path's v is v0 plus the running sum of its profits, and an
    untraded period adds +-0, which leaves v as it is. A non-finite r on an
    untraded period makes its dv NaN, and v NaN for the later periods of the
    same path only, so the first non-finite profit in (period, path) order
    is the point the error names.
    """
    sabs, dv = out
    np.abs(s[:-1], out=sabs)
    on = sabs > tau
    _step_values(model, p1, p2, s, on, leverage, v0, dv)
    if not np.isfinite(dv).all():
        k, j = np.argwhere(~np.isfinite(dv))[0]
        raise StationaryPointError(
            f"spread gradient vanishes or is not finite at ({p1[k, j]}, {p2[k, j]}), "
            f"period {k} of path {j}"
        )
    return on


def _step_values(model, p1, p2, s, on, leverage, v0, dv):
    """Write every period's profit into the rows of dv; see trade_scan.

    The two tile planes are allocated once here and freed on return, before
    trade_scan's finite check.
    """
    periods, paths = on.shape
    v = np.full(paths, float(v0))
    planes = np.empty((2, min(TILE, periods), paths))
    # a stationary point divides by zero below; trade_scan's check reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        for k0 in range(0, periods, TILE):
            k1 = min(k0 + TILE, periods)
            den, x = planes[:, : k1 - k0]
            r = dv[k0:k1]
            p1t, p2t = p1[k0:k1], p2[k0:k1]
            g1, g2 = model.gradient(p1t, p2t)
            # |g1| p1 + |g2| p2
            np.abs(g1, out=den)
            den *= p1t
            np.abs(g2, out=x)
            x *= p2t
            den += x
            # leverage (g1 dp1 + g2 dp2) / den
            np.subtract(p1[k0 + 1 : k1 + 1], p1t, out=x)
            np.multiply(g1, x, out=r)
            np.subtract(p2[k0 + 1 : k1 + 1], p2t, out=x)
            x *= g2
            r += x
            r *= leverage
            r /= den
            # times -sign(s) on, which is exact: -1 where s > 0, else 1,
            # and 0 where untraded
            np.greater(s[k0:k1], 0.0, out=x)
            x *= -2.0
            x += 1.0
            x *= on[k0:k1]
            r *= x
            for dv_k in r:
                dv_k *= v
                v += dv_k
