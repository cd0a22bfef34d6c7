"""Shared evaluation machinery for the synthesis heuristics (section 5).

Every heuristic — SF, OS, OR, SAS, SAR — scores a candidate configuration
``ψ`` the same way: run :func:`multi_cluster_scheduling`, then compute the
degree of schedulability ``δΓ`` and the buffer bound ``s_total``.  The
:class:`Evaluation` record bundles the outcome; configurations that cannot
be scheduled at all (e.g. a slot too small for a frame) are mapped to a
large finite penalty so the heuristics keep a total order.

Since the :mod:`repro.api` facade the evaluation itself lives in the
``"analysis"`` backend (:class:`repro.api.backends.AnalysisBackend`);
this module adapts its :class:`repro.api.result.RunResult` into the
:class:`Evaluation` shape the heuristics climb on, and routes through a
:class:`repro.api.session.Session` when the caller provides one (gaining
configuration-hash memoization across optimizer iterations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.buffers import BufferReport
from ..analysis.degree import SchedulabilityReport
from ..analysis.multicluster import MultiClusterResult
from ..api.backends import AnalysisBackend
from ..api.result import INFEASIBLE_COST, RunResult
from ..model.configuration import SystemConfiguration
from ..system import System

__all__ = ["Evaluation", "evaluate", "evaluation_from_run", "INFEASIBLE_COST"]

#: Shared stateless backend instance for session-less evaluation calls.
_ANALYSIS = AnalysisBackend()


@dataclass
class Evaluation:
    """Scored configuration ``ψ`` (see module docstring).

    ``degree`` is the paper's ``δΓ`` cost (smaller = better, <= 0 means
    schedulable); ``total_buffers`` is ``s_total`` in bytes.  ``error``
    carries the reason when the configuration could not be evaluated.
    """

    config: SystemConfiguration
    result: Optional[MultiClusterResult] = None
    report: Optional[SchedulabilityReport] = None
    buffers: Optional[BufferReport] = None
    error: Optional[str] = None
    #: Store-addressable provenance: the configuration hash the session
    #: memoized (and persisted) this evaluation under.  ``None`` for
    #: session-less evaluations, which are never cached or stored.
    config_hash: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """True when the configuration could be analysed at all."""
        return self.error is None

    @property
    def schedulable(self) -> bool:
        """True when every deadline is met."""
        return self.report is not None and self.report.schedulable

    @property
    def degree(self) -> float:
        """``δΓ`` cost; INFEASIBLE_COST when not analysable."""
        if self.report is None:
            return INFEASIBLE_COST
        return self.report.degree

    @property
    def total_buffers(self) -> float:
        """``s_total``; INFEASIBLE_COST when not analysable."""
        if self.buffers is None:
            return INFEASIBLE_COST
        return self.buffers.total


def evaluation_from_run(run: RunResult) -> Evaluation:
    """Adapt a facade :class:`RunResult` into the heuristics' record."""
    provenance = run.metadata.get("config_hash")
    if not run.feasible:
        return Evaluation(
            config=run.config, error=run.error, config_hash=provenance
        )
    return Evaluation(
        config=run.config,
        result=run.analysis,
        report=run.report,
        buffers=run.buffers,
        config_hash=provenance,
    )


def evaluate(
    system: System,
    config: SystemConfiguration,
    session=None,
) -> Evaluation:
    """Run the full analysis pipeline on one configuration.

    ``session`` (a :class:`repro.api.session.Session`) is optional; when
    given, the run is memoized by configuration hash so optimizers that
    revisit a configuration pay for it once.  The session must wrap the
    same :class:`System` instance — evaluating against a different
    system than the one the heuristic planned for would silently score
    the wrong problem.  With or without a session, every analysis pass
    runs on the System's compiled kernel
    (:class:`repro.analysis.kernel.AnalysisContext`) — one full
    interference-table compile per System, incremental recompiles per
    move.
    """
    if session is not None:
        if session.system is not system:
            raise ValueError(
                "session wraps a different System than the one being "
                "evaluated; pass a Session(system) for this system"
            )
        run = session.evaluate(config, backend="analysis")
    else:
        run = _ANALYSIS.run(system, config)
    return evaluation_from_run(run)
