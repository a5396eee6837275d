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

# Every public name loads its module on first access (PEP 562), so each
# command compiles only the modules it runs, and the Fraction-only paths
# never import numpy or scipy.  lp exports nothing here, but stays
# reachable as an attribute.
_LAZY = {
    "_numbers": ("Problem",),
    "distribution": (
        "DiscreteDistribution", "TransformValue", "cost_efficient_payoff",
        "distributional_transform", "in_permutation_hull", "is_convex_dominated",
        "mean_preserving_contraction",
    ),
    "efficiency": (
        "convexified_maximin_cost", "convexified_minimax_cost", "maximin_cost",
        "minimax_cost", "solve_problem",
    ),
    "errors": (
        "BracketError", "DimensionMismatchError", "EfficoError", "InfeasibleError",
        "NumericalError", "TooManyStatesError",
    ),
    "lp": (),
    "market": (
        "DiscreteMarket", "KernelFamily", "ParametricFamily", "PricingKernel",
        "SuperhedgeResult", "VertexFamily", "kernel_family", "price",
        "superhedge_cost",
    ),
    "solution": ("KernelSet", "Optimizer", "PayoffSet", "SolutionSet"),
    "stochvol": (
        "DEFAULT_MODEL", "CurvePoint", "DistributionCost", "LogNormal",
        "MixtureStock", "MomentMatchedTargets", "Normal", "PointMass",
        "RegimeSwitchModel", "curve_to_csv", "distribution_superhedge_cost",
        "floor_price", "kernel_cdf", "kernel_quantile", "moment_matched_targets",
        "stock_cdf", "stock_quantile", "variance_cost_curve",
    ),
    "three_state": (
        "KkmDiagnostics", "ThreeStateTarget", "attainable_cost_efficient_payoffs",
        "attainable_permutations", "is_attainable_payoff", "is_perfectly_cost_efficient",
        "kkm_diagnostics", "three_state_closed_form",
    ),
    "utility": (
        "CustomUtility", "EfficiencyReport", "ExpUtility", "GridSearchResult",
        "LogUtility", "PowerUtility", "WealthSolution", "closed_form_wealth",
        "cost_efficiency_check", "optimal_wealth", "share_grid_search",
        "share_payoff", "utility_from_name",
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

__all__ = sorted(_LAZY_OWNER)
