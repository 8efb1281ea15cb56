"""Correctness oracles, run outside every timed region.

The paper's contract for one answer ``J`` of an And/Or expression over
Ptile/Pref leaves is

- recall 1: every dataset whose exact measures satisfy the expression is
  in ``J`` (checked against ``QueryService.ground_truth``);
- bounded slack: every dataset in ``J`` satisfies the expression once each
  leaf's ``θ`` is widened by ``2·eps_effective + 2·δ_i`` (checked with the
  exact measures of :mod:`repro.evaluation`).  And/Or are monotone, so
  widening every leaf bounds the whole expression.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Expression, Predicate
from repro.evaluation import audit_interval_query, exact_pref_scores, exact_ptile_masses


def _leaf_values(leaf: Predicate, datasets: Sequence[np.ndarray]) -> list[float]:
    measure = leaf.measure
    if isinstance(measure, PercentileMeasure):
        return exact_ptile_masses(datasets, measure.rect)
    return exact_pref_scores(datasets, measure.vector, measure.k)


def widened_truth(
    expression: Expression,
    datasets: Sequence[np.ndarray],
    live: set[int],
    eps_effective: float,
    synopses: Sequence,
) -> set[int]:
    """Live datasets satisfying ``expression`` with every θ widened by
    ``2·eps_effective + 2·δ_i``."""
    if isinstance(expression, Predicate):
        theta = expression.theta
        if isinstance(expression.measure, PercentileMeasure):
            theta = theta.clamp(0.0, 1.0)
            delta_of = lambda j: synopses[j].delta_ptile  # noqa: E731
        else:
            delta_of = lambda j: synopses[j].delta_pref  # noqa: E731
        report = audit_interval_query(
            _leaf_values(expression, datasets),
            live,
            theta,
            slack_of=lambda j: 2 * eps_effective + 2 * (delta_of(j) or 0.0),
        )
        return live - {j for j, _v, _s in report.slack_violations}
    parts = [
        widened_truth(c, datasets, live, eps_effective, synopses)
        for c in expression.children
    ]
    out = parts[0]
    for part in parts[1:]:
        out = out & part if isinstance(expression, And) else out | part
    return out


def check_contract(
    expression: Expression,
    reported: set[int],
    truth: set[int],
    datasets: Sequence[np.ndarray],
    live: set[int],
    eps_effective: float,
    synopses: Sequence,
) -> Optional[str]:
    """None when ``reported`` honours the contract, else the reason.

    ``truth`` is the exact answer over the live datasets
    (``QueryService.ground_truth`` at the time of the answer)."""
    missed = truth - reported
    if missed:
        return f"recall < 1: missed {sorted(missed)[:5]}"
    outside = reported - widened_truth(
        expression, datasets, live, eps_effective, synopses
    )
    if outside:
        return f"reported outside the slack band: {sorted(outside)[:5]}"
    return None


def check_service_answer(
    service, expression: Expression, reported: set[int], datasets: Sequence[np.ndarray]
) -> Optional[str]:
    """:func:`check_contract` against a service's current state."""
    ex = service.executor
    live = set(range(ex.n_datasets)) - ex.removed
    return check_contract(
        expression, reported, service.ground_truth(expression), datasets, live,
        ex.eps_effective, ex.synopses,
    )
