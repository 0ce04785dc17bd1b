"""Motivating applications built on top of sensor locations.

The paper's introduction motivates localization security with geographic
routing and battlefield-surveillance reporting; these modules implement
simplified but functional versions of those applications so that the
example scripts can quantify the *application-level* damage of localization
anomalies and the benefit of filtering them out with LAD.
"""

from repro.applications.routing import (
    GreedyGeographicRouter,
    RoutingStats,
    evaluate_routing,
)
from repro.applications.surveillance import (
    SurveillanceField,
    EventReport,
    ReportingStats,
)

__all__ = [
    "GreedyGeographicRouter",
    "RoutingStats",
    "evaluate_routing",
    "SurveillanceField",
    "EventReport",
    "ReportingStats",
]
