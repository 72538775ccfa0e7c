"""Time-major numpy kernels of the Monte Carlo simulation.

A block holds many independent paths side by side: row k is period k and
column j is path j. Each kernel steps down the rows, one period for all paths
at a time, so every path sees the scalar recursion's operations in the
scalar recursion's order and gets the same doubles a one-path loop would.
trade_scan steps only its account-value recursion row by row; the work
that does not depend on the value runs in block calls over tiles of TILE
periods.

Both kernels work in blocks the caller owns, so a caller that reuses one
set of blocks (verify_theorem's arena) allocates no block per call:
ou_recursion overwrites its innovation blocks with the paths, and
trade_scan writes |s| and every period's profit into its `out` blocks.
Only the per-event results, the traded mask, one-row temporaries and
trade_scan's six (TILE, paths) tile planes, once per call, are allocated.

The one exception to one implementation per kernel: ou_recursion steps a
one-path block over Python floats, with the same operations in the same
order, because two ufunc calls on a 1-element row per period cost several
times the arithmetic (generate_pair runs one path of up to 100k periods).
"""

from __future__ import annotations

import numpy as np

from .spread import StationaryPointError

# periods per tile of trade_scan's block passes; at 1024 paths (a chunk of
# seeding.CHUNK_TRIALS) each of its six tile planes is 128 KB
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
    raises StationaryPointError, traded or not, naming the first such
    period and, within it, the first such path.

    Only lam = leverage v / den, the profit and the update of the account
    value v depend on v. Everything else runs per tile of TILE periods, in
    block calls: one model.gradient call per tile (so the model sees
    (rows, paths) price blocks), den = |g1| p1 + |g2| p2, the sign-flipped
    gradient a = -sign(s) g, the price moves dp and the traded mask as
    floats. Each period then takes 9 row calls:

        lam = leverage v / den
        dv = (lam a1) dp1 + (lam a2) dp2
        v += dv on

    The doubles are those of the holdings n = -lam sign(s) g, for three
    reasons. A sign flip is exact, so (-lam sign(s)) g and lam (-sign(s) g)
    are the same double. An untraded period adds dv 0 = +-0, and
    v + +-0 = v. A non-finite dv on an untraded period turns v into NaN
    (a masked add would leave it alone), but only for later periods of the
    same path, so the first non-finite profit, the one reported, does not
    move.
    """
    sabs, dv = out
    np.abs(s[:-1], out=sabs)
    on = sabs > tau
    _profits(model, p1, p2, s, on, leverage, v0, dv)
    if not np.isfinite(dv).all():
        k, j = np.argwhere(~np.isfinite(dv))[0]
        raise StationaryPointError(
            f"spread gradient vanishes or is not finite at ({p1[k, j]}, {p2[k, j]}), "
            f"period {k} of path {j}"
        )
    events = on.T
    return dv.T[events], (sabs.T[events] if gather_sabs else None)


def _profits(model, p1, p2, s, on, leverage, v0, dv):
    """Write every period's profit into the rows of dv; see trade_scan.

    The tile planes are allocated once here and freed on return, before
    trade_scan gathers its events.
    """
    periods, paths = on.shape
    v = np.full(paths, float(v0))
    lam, x, y = np.empty((3, paths))
    planes = np.empty((6, min(TILE, periods), paths))
    # a stationary point divides by zero below; trade_scan's check reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        for k0 in range(0, periods, TILE):
            k1 = min(k0 + TILE, periods)
            den, a1, a2, dp1, dp2, onf = planes[:, : k1 - k0]
            p1t, p2t = p1[k0:k1], p2[k0:k1]
            g1, g2 = model.gradient(p1t, p2t)
            # |g1| p1 + |g2| p2, with a1 as scratch
            np.abs(g1, out=den)
            den *= p1t
            np.abs(g2, out=a1)
            a1 *= p2t
            den += a1
            # -sign(s) in onf: -1 where s > 0, else 1
            np.greater(s[k0:k1], 0.0, out=onf)
            onf *= -2.0
            onf += 1.0
            np.multiply(g1, onf, out=a1)
            np.multiply(g2, onf, out=a2)
            np.subtract(p1[k0 + 1 : k1 + 1], p1t, out=dp1)
            np.subtract(p2[k0 + 1 : k1 + 1], p2t, out=dp2)
            np.copyto(onf, on[k0:k1])
            for den_k, a1_k, a2_k, dp1_k, dp2_k, on_k, dv_k in zip(
                den, a1, a2, dp1, dp2, onf, dv[k0:k1]
            ):
                np.multiply(v, leverage, out=lam)
                lam /= den_k
                np.multiply(lam, a1_k, out=x)
                x *= dp1_k
                np.multiply(lam, a2_k, out=y)
                y *= dp2_k
                np.add(x, y, out=dv_k)
                np.multiply(dv_k, on_k, out=x)
                v += x
