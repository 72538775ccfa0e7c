"""Per-layer spans for the traced run, installed from outside the program.

Each wrapped public function `<module>.<name>` is swapped for a timing
wrapper wherever the program looks it up: every `pairtrade.*` module
attribute and function default that holds the original object, or the class
attribute for a method. Nested wrapped calls give each span its self time.
A function that no longer exists is reported absent, not fatal.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "pairtrade"

LAYERS = (
    "cli.main",
    "ingest.load_csv",
    "domain.PriceSeries.window",
    "spread.fit_cointegration",
    "spread.spread_value",
    "spread.spread_gradient",
    "spread.spread_hessian",
    "estimation.estimate_gamma",
    "estimation.estimate_eta",
    "trading.threshold_approx",
    "trading.threshold_exact",
    "trading.allocate",
    "backtest.run_backtest",
    "backtest.write_ledger_csv",
    "backtest.write_report_json",
    "backtest.write_plot_csv",
    "synthetic.trial_generators",
    "synthetic.verify_theorem",
    "synthetic.verify_lemma",
    "kernels.ou_recursion",
    "kernels.trade_scan",
)
SELF_TIMED = (
    "cli.main",
    "backtest.run_backtest",
    "synthetic.verify_theorem",
    "synthetic.verify_lemma",
)
COUNTS = (
    "domain.PricePoint_calls",
    "ingest.rows",
    "backtest.ledger_rows",
    "backtest.bytes_written",
    "synthetic.trade_events",
)
# spans this deep or shallower are kept one by one; deeper ones only in totals
SPAN_DEPTH = 2


def _path_arg(args) -> str | None:
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return os.fspath(a)
    return None


def _count_bytes(counts, result, args):
    path = _path_arg(args)
    if path is not None and os.path.isfile(path):
        counts["backtest.bytes_written"] += os.path.getsize(path)


AFTER = {
    "ingest.load_csv": lambda counts, result, args: counts.update({"ingest.rows": len(result)}),
    "backtest.run_backtest": lambda counts, result, args: counts.update(
        {"backtest.ledger_rows": len(result[0])}
    ),
    "backtest.write_ledger_csv": _count_bytes,
    "backtest.write_report_json": _count_bytes,
    "backtest.write_plot_csv": _count_bytes,
    "synthetic.verify_theorem": lambda counts, result, args: counts.update(
        {"synthetic.trade_events": result.trade_events}
    ),
}


class Tracer:
    """Inclusive time, self time and calls per layer, plus the shallow spans."""

    def __init__(self) -> None:
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child time, span index] per open call
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.inclusive.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if len(stack) < SPAN_DEPTH:
                frame[1] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[0]
                self.calls[name] += 1
                if frame[1] >= 0:
                    self.spans[frame[1]] = (name, t0, t1, parent)
            if after is not None:
                after(self.counts, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name in LAYERS:
            module_name, _, qual = name.partition(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *outer, attr = qual.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is original:
                        self._set(module, key, wrapper)
                    target = getattr(val, "__wrapped__", val)
                    defaults = getattr(target, "__defaults__", None)
                    if defaults and any(d is original for d in defaults):
                        self._set(target, "__defaults__",
                                  tuple(wrapper if d is original else d for d in defaults))
        self._count_constructions()

    def _count_constructions(self) -> None:
        try:
            cls = importlib.import_module(f"{PACKAGE}.domain").PricePoint
        except (ImportError, AttributeError):
            self.absent.append("domain.PricePoint")
            return
        init = cls.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["domain.PricePoint_calls"] += 1
            init(obj, *args, **kwargs)

        self._set(cls, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of the calls made since the last reset."""
        out: dict[str, float] = {}
        for name in LAYERS:
            if name in self.absent:
                continue
            out[f"{name}_s"] = self.inclusive.get(name, 0.0)
            out[f"{name}_calls"] = self.calls.get(name, 0)
        for name in SELF_TIMED:
            if name not in self.absent:
                out[f"{name}_self_s"] = self.self_time.get(name, 0.0)
        for name in COUNTS:
            if name == "domain.PricePoint_calls" and "domain.PricePoint" in self.absent:
                continue
            out[name] = self.counts.get(name, 0)
        return out
