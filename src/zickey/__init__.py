"""Secrecy rates over a one-sided Gaussian interference channel with a
shared secret key.

Transmitter 1 talks to receiver 1 over a direct link while transmitter
2's signal also reaches receiver 1 (the cross link); pair 2 shares a
finite-rate secret key, and user 2's message must stay hidden from
receiver 1. The package computes achievable rate region polygons for
four coding schemes, the matching outer bounds, and the normalized
high-power (GDOF) regions, all in bits per channel use.
"""

from .bounds import (OuterBounds, composite_outer_region,
                     evaluate_outer_bounds, nonsecrecy_sum_bound,
                     r2_outer_high, sum_rate_outer)
from .channel import (ChannelParams, DomainError, SchemeParams,
                      classify_regime, db_to_linear, snr_inr)
from .gdof import (ConvergenceReport, GdofParams, gdof_convergence_check,
                   gdof_region, no_secrecy_gdof)
from .geometry import (GEOM_TOL, REGION_TOL, Region, UnboundedRegionError,
                       containment_margin, contains, distance_to_region,
                       hull, intersect_halfplanes, max_y_at_x, pareto_filter,
                       subset_of)
from .scenario import ConfigError, build_channel, build_grid, load_config
from .schemes import (SCHEMES, GridSpec, RateConstraints, gdof_split_lambda2,
                      max_sum_rate, max_sum_rates, polygon_points,
                      scheme_point, sweep_region, sweep_regions)
from .verify import INVARIANTS, REPORT_SCHEMA, render_report, run_battery

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "SchemeParams", "DomainError", "ConfigError",
    "classify_regime", "snr_inr", "db_to_linear",
    "Region", "UnboundedRegionError", "GEOM_TOL", "REGION_TOL",
    "hull", "intersect_halfplanes", "contains", "containment_margin",
    "subset_of", "distance_to_region", "max_y_at_x", "pareto_filter",
    "SCHEMES", "GridSpec", "RateConstraints", "scheme_point",
    "polygon_points", "sweep_region", "sweep_regions",
    "max_sum_rate", "max_sum_rates", "gdof_split_lambda2",
    "OuterBounds", "evaluate_outer_bounds", "sum_rate_outer",
    "r2_outer_high", "nonsecrecy_sum_bound", "composite_outer_region",
    "GdofParams", "ConvergenceReport",
    "gdof_region", "no_secrecy_gdof", "gdof_convergence_check",
    "load_config", "build_channel", "build_grid",
    "run_battery", "render_report", "REPORT_SCHEMA", "INVARIANTS",
]
