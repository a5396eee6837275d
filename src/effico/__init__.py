"""Cost-efficient payoffs and distributional superhedging in incomplete markets.

The package answers one family of questions: given the *distribution* of a
terminal payoff rather than the payoff itself, what does delivering it
cost, which payoff achieves that cost, and when does the cheapest
superhedge have the required law exactly?  Closed forms cover the
canonical 3-state market, generic solvers cover small equiprobable
markets, and a regime-switching Black-Scholes module covers the
continuous case numerically.
"""
from importlib import import_module as _import_module

from .distribution import (
    DiscreteDistribution,
    TransformValue,
    cost_efficient_payoff,
    distributional_transform,
    in_permutation_hull,
    is_convex_dominated,
    mean_preserving_contraction,
)
from .efficiency import (
    KernelSet,
    KkmDiagnostics,
    Optimizer,
    PayoffSet,
    Problem,
    SolutionSet,
    ThreeStateTarget,
    attainable_cost_efficient_payoffs,
    attainable_permutations,
    convexified_maximin_cost,
    convexified_minimax_cost,
    is_attainable_payoff,
    is_perfectly_cost_efficient,
    kkm_diagnostics,
    maximin_cost,
    minimax_cost,
    solve_problem,
    three_state_closed_form,
)
from .errors import (
    BracketError,
    DimensionMismatchError,
    EfficoError,
    InfeasibleError,
    NumericalError,
    TooManyStatesError,
)
from .market import (
    DiscreteMarket,
    KernelFamily,
    ParametricFamily,
    PricingKernel,
    SuperhedgeResult,
    VertexFamily,
    kernel_family,
    price,
    superhedge_cost,
)

# stochvol (numpy, scipy.special) and utility (scipy.optimize) load on first
# use, so the Fraction-only paths never import numpy or scipy.
_LAZY = {
    "stochvol": (
        "DEFAULT_MODEL",
        "CurvePoint",
        "DistributionCost",
        "LogNormal",
        "MixtureStock",
        "MomentMatchedTargets",
        "Normal",
        "PointMass",
        "RegimeSwitchModel",
        "curve_to_csv",
        "distribution_superhedge_cost",
        "floor_price",
        "kernel_cdf",
        "kernel_quantile",
        "moment_matched_targets",
        "stock_cdf",
        "stock_quantile",
        "variance_cost_curve",
    ),
    "utility": (
        "CustomUtility",
        "EfficiencyReport",
        "ExpUtility",
        "GridSearchResult",
        "LogUtility",
        "PowerUtility",
        "WealthSolution",
        "closed_form_wealth",
        "cost_efficiency_check",
        "optimal_wealth",
        "share_grid_search",
        "share_payoff",
        "utility_from_name",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Resolve a lazy re-export, or the lazy submodule itself, on first access."""
    module = _LAZY_OWNER.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _import_module(f".{module}", __name__)
    return mod if module == name else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})


__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CurvePoint",
    "CustomUtility",
    "DEFAULT_MODEL",
    "DimensionMismatchError",
    "DiscreteDistribution",
    "DiscreteMarket",
    "DistributionCost",
    "EfficiencyReport",
    "EfficoError",
    "ExpUtility",
    "GridSearchResult",
    "InfeasibleError",
    "KernelFamily",
    "KernelSet",
    "KkmDiagnostics",
    "LogNormal",
    "LogUtility",
    "MixtureStock",
    "MomentMatchedTargets",
    "Normal",
    "NumericalError",
    "Optimizer",
    "ParametricFamily",
    "PayoffSet",
    "PointMass",
    "PowerUtility",
    "PricingKernel",
    "Problem",
    "RegimeSwitchModel",
    "SolutionSet",
    "SuperhedgeResult",
    "ThreeStateTarget",
    "TooManyStatesError",
    "TransformValue",
    "VertexFamily",
    "WealthSolution",
    "attainable_cost_efficient_payoffs",
    "attainable_permutations",
    "closed_form_wealth",
    "convexified_maximin_cost",
    "convexified_minimax_cost",
    "cost_efficiency_check",
    "cost_efficient_payoff",
    "curve_to_csv",
    "distribution_superhedge_cost",
    "distributional_transform",
    "floor_price",
    "in_permutation_hull",
    "is_attainable_payoff",
    "is_convex_dominated",
    "is_perfectly_cost_efficient",
    "kernel_cdf",
    "kernel_family",
    "kernel_quantile",
    "kkm_diagnostics",
    "maximin_cost",
    "mean_preserving_contraction",
    "minimax_cost",
    "moment_matched_targets",
    "optimal_wealth",
    "price",
    "share_grid_search",
    "share_payoff",
    "solve_problem",
    "stock_cdf",
    "stock_quantile",
    "superhedge_cost",
    "three_state_closed_form",
    "utility_from_name",
    "variance_cost_curve",
]
