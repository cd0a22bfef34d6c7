"""Shared evaluation entry point of the synthesis heuristics (section 5).

Every heuristic — SF, OS, OR, SAS, SAR — scores a candidate configuration
``ψ`` the same way: run :func:`multi_cluster_scheduling`, then compute the
degree of schedulability ``δΓ`` and the buffer bound ``s_total``.  That is
the ``"analysis"`` backend of :mod:`repro.api`, and its
:class:`repro.api.result.RunResult` is the record the heuristics climb
on; configurations that cannot be scheduled at all (e.g. a slot too
small for a frame) carry the large finite
:data:`repro.api.result.INFEASIBLE_COST`, so the heuristics keep a
total order.
"""

from __future__ import annotations

from ..api.result import RunResult
from ..api.session import Session
from ..model.configuration import SystemConfiguration
from ..system import System

__all__ = ["evaluate"]


def evaluate(
    system: System,
    config: SystemConfiguration,
    session=None,
) -> RunResult:
    """Run the full analysis pipeline on one configuration.

    The run goes through ``session`` (a
    :class:`repro.api.session.Session`), or through a private
    ``Session(system)`` when none is given, and is memoized there by
    configuration hash, so optimizers that revisit a configuration pay
    for it once.  The session must wrap the same :class:`System`
    instance — evaluating against a different system than the one the
    heuristic planned for would silently score the wrong problem.
    """
    if session is None:
        session = Session(system)
    elif session.system is not system:
        raise ValueError(
            "session wraps a different System than the one being "
            "evaluated; pass a Session(system) for this system"
        )
    return session.evaluate(config, backend="analysis")
