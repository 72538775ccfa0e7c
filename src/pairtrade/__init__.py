"""Threshold-based pairs trading on a mean-reverting spread.

The package covers the full pipeline: spread models over a pair of positive
prices, rolling-window estimation of the return bound and reversion rate,
threshold sizing from worst-case curvature, a staggered sliding-window
backtest engine, a bounded-innovation synthetic generator, and Monte Carlo
harnesses that verify the expected-growth and approximation-error claims.
"""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    Ledger,
    buy_and_hold,
    max_drawdown,
    run_backtest,
    write_ledger_csv,
    write_plot_csv,
    write_report_json,
)
from .domain import (
    DomainError,
    LengthError,
    PricePoint,
    PriceSeries,
    return_arrays,
)
from .estimation import (
    DEFAULT_GAMMA_FLOOR,
    WindowConfig,
    estimate_eta,
    estimate_gamma,
)
from .ingest import (
    AdjustmentRule,
    FormatError,
    OrderingError,
    RowError,
    apply_adjustments,
    load_csv,
)
from .seeding import trial_generators
from .spread import (
    CointegrationSpread,
    SpreadModel,
    StationaryPointError,
    fit_cointegration,
    spread_gradient,
    spread_hessian,
    spread_value,
)
from .synthetic import (
    LemmaSummary,
    OUPairSpec,
    TheoremSummary,
    generate_pair,
    verify_lemma,
    verify_theorem,
)
from .trading import allocate, threshold_approx, threshold_exact

__version__ = "0.1.0"

__all__ = [
    "AdjustmentRule",
    "BacktestConfig",
    "BacktestReport",
    "CointegrationSpread",
    "DEFAULT_GAMMA_FLOOR",
    "DomainError",
    "FormatError",
    "Ledger",
    "LemmaSummary",
    "LengthError",
    "OrderingError",
    "OUPairSpec",
    "PricePoint",
    "PriceSeries",
    "RowError",
    "SpreadModel",
    "StationaryPointError",
    "TheoremSummary",
    "WindowConfig",
    "allocate",
    "apply_adjustments",
    "buy_and_hold",
    "estimate_eta",
    "estimate_gamma",
    "fit_cointegration",
    "generate_pair",
    "load_csv",
    "max_drawdown",
    "return_arrays",
    "run_backtest",
    "spread_gradient",
    "spread_hessian",
    "spread_value",
    "threshold_approx",
    "threshold_exact",
    "trial_generators",
    "verify_lemma",
    "verify_theorem",
    "write_ledger_csv",
    "write_plot_csv",
    "write_report_json",
    "__version__",
]
