"""Simulator–analysis conformance harness.

The paper's central soundness claim — the holistic schedulability
analysis *dominates* observed behaviour — is enforced here as a
continuously-fuzzed contract between :mod:`repro.analysis` and
:mod:`repro.sim`, built on the shared timing semantics of
:mod:`repro.semantics`:

* :mod:`repro.conformance.classify` — compare one simulation run against
  its analytic bounds and classify every divergence (missing-message,
  deadline, response-bound, jitter-bound, queue-bound);
* :mod:`repro.conformance.campaign` — sweep seeded random workloads
  (:mod:`repro.synth.workload`) through analysis and the compiled
  simulation kernel via :class:`repro.api.Session`, as one ``conform``
  sweep cell per seed on the :mod:`repro.explore` engine (locally or
  through ``repro serve``), reporting per-phase timings
  (``--profile``);
* :mod:`repro.conformance.shrink` — reduce a violating workload to a
  minimal counterexample (drop graphs, trim chains) that still violates;
* :mod:`repro.conformance.fixtures` — persist counterexamples as
  replayable JSON fixtures and replay them (the regression-pinning
  format used by ``tests/fixtures/``).

The CLI front end is ``repro conform --campaign N --workers K``.
"""

from .campaign import (
    CampaignReport,
    CampaignSpec,
    SeedOutcome,
    campaign_report,
    conformance_configuration,
    evaluate_workload,
    run_campaign,
)
from .classify import ConformanceViolation, classify_run
from .fixtures import load_fixture, replay_fixture, save_fixture
from .shrink import shrink_counterexample

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "ConformanceViolation",
    "SeedOutcome",
    "campaign_report",
    "classify_run",
    "conformance_configuration",
    "evaluate_workload",
    "load_fixture",
    "replay_fixture",
    "run_campaign",
    "save_fixture",
    "shrink_counterexample",
]
