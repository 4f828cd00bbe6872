"""The query optimizer: capability-aware decomposition and costing.

Section 4 of the paper requires "an internal query optimizer that can
address the varying query capabilities of different data sources".  The
optimizer here:

* decomposes a bound XML-QL query into per-source fragments, pushing
  the maximal selections each source's capability profile admits
  (:mod:`repro.optimizer.decomposer`);
* estimates fragment costs from catalog statistics and each wrapper's
  network model — with an explicit uncertainty knob, since the paper
  stresses "we do not have good cost estimates for querying over remote
  data sources" (:mod:`repro.optimizer.costs`);
* orders joins greedily by estimated cardinality and places dependent
  (parameterized) fragments after their input producers
  (:mod:`repro.optimizer.planner`).
"""

from repro.optimizer.costs import CostModel, FragmentEstimate
from repro.optimizer.decomposer import (
    DecomposedQuery,
    FragmentUnit,
    UnfoldedViewUnit,
    ViewUnit,
    decompose,
)
from repro.optimizer.planner import PlanBuilder

from repro.optimizer.routing import RoutingDecision, merge_strategy, route

__all__ = [
    "CostModel",
    "DecomposedQuery",
    "FragmentEstimate",
    "FragmentUnit",
    "PlanBuilder",
    "RoutingDecision",
    "UnfoldedViewUnit",
    "ViewUnit",
    "decompose",
    "merge_strategy",
    "route",
]
