"""Reference oracles: the pre-kernel implementations, kept for parity.

The shipped package has one analysis kernel, one compiled static
scheduler and one simulation kernel.  The implementations they replaced
live here, unchanged, as executable specifications the parity and
identity suites compare against:

* :func:`legacy_response_time_analysis` — the holistic analysis that
  recompiles its interference structure per call;
* :func:`legacy_multihop_response_time_analysis` — the interpreted
  per-leg analysis of general topologies and route overrides, which
  rebuilds its name-keyed per-leg rows per call;
* :func:`full_sweep_solve` — the kernel's holistic fixed point run by
  full sweeps (every row re-solved every sweep, no reuse of earlier
  solves);
* :func:`legacy_static_schedule` — the interpreted list scheduler,
  which re-derives urgencies, predecessor routes and slot arithmetic
  per call, and its name-keyed :func:`downstream_urgency` (the
  critical-path priority the image holds as ``proc_urgency``);
* :func:`legacy_buffer_bounds` — the name-keyed queue-size bounds,
  which re-derive queue membership and pair constants per call, over
  the reference activation counts :func:`phase_locked_hits` and
  :func:`ceil0_hits`;
* :func:`legacy_local_deadlines` — the name-keyed HOPA local-deadline
  split, which scans every message of a graph per process;
* :class:`LegacySimulator` / :func:`legacy_simulate` — the
  event-by-event simulator over an :class:`EventQueue` heap;
* :func:`steer_gateway_traffic_scan` — the full-scan workload steering;
* :func:`audit_dispatch_eligibility` — the outside check that a built
  static schedule dispatches no TT process before its inputs' bounds;
* :func:`rho_max_abs_delta` / :func:`offsets_max_abs_delta` — the size
  of the largest difference between two ``ρ`` records or offset tables,
  which the parity suites assert is zero.

Nothing under ``src/`` imports this package.
"""

from .busy_window import ceil0_hits, phase_locked_hits
from .deltas import offsets_max_abs_delta, rho_max_abs_delta
from .dispatch_audit import audit_dispatch_eligibility
from .events import EventQueue
from .full_sweep import full_sweep_solve
from .legacy_buffers import legacy_buffer_bounds
from .legacy_hopa import legacy_local_deadlines
from .legacy_multihop import legacy_multihop_response_time_analysis
from .legacy_rta import legacy_response_time_analysis
from .legacy_schedule import downstream_urgency, legacy_static_schedule
from .legacy_sim import LegacySimulator, legacy_simulate
from .workload_scan import steer_gateway_traffic_scan

__all__ = [
    "EventQueue",
    "LegacySimulator",
    "audit_dispatch_eligibility",
    "ceil0_hits",
    "downstream_urgency",
    "full_sweep_solve",
    "legacy_buffer_bounds",
    "legacy_local_deadlines",
    "legacy_multihop_response_time_analysis",
    "legacy_response_time_analysis",
    "legacy_simulate",
    "legacy_static_schedule",
    "offsets_max_abs_delta",
    "phase_locked_hits",
    "rho_max_abs_delta",
    "steer_gateway_traffic_scan",
]
