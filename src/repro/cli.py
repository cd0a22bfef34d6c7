"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Generate a random two-cluster workload (the paper's experimental
    recipe) and write it to a JSON system file.

``analyze``
    Run the multi-cluster schedulability analysis for a system + an
    explicit configuration, printing the per-activity timing table, the
    per-graph verdicts and the buffer bounds.  ``--format json`` emits
    the full :class:`repro.api.RunResult` record instead; ``--stats``
    adds the session's hot-path statistics (analysis wall-time, kernel
    compiles and incremental recompiles, memoization counters).

``synthesize``
    Run the synthesis pipeline (OS, optionally followed by OR) on a
    system file and write the resulting configuration JSON.

``simulate``
    Synthesize (or load) a configuration and execute the discrete-event
    simulator (the compiled kernel), reporting observed-vs-bound values;
    ``--stats`` adds compile/replay timings and events/sec plus the
    session's kernel counters.

``sensitivity``
    Compute the WCET scaling margin and the most deadline-critical
    activities of a configuration.  ``--format json`` emits the
    :class:`repro.api.RunResult` (margins and critical activities in its
    metadata).

``conform``
    Run a simulator–analysis conformance campaign
    (:mod:`repro.conformance`): N seeded random workloads through
    analysis and simulation, every dominance violation classified,
    shrunk to a minimal counterexample and persisted as a replayable
    fixture.  ``--profile``/``--stats`` report per-phase timings and
    events/sec (machine-readable under ``--format json``).
    Exit code 0 only when the campaign is clean.

``explore``
    Run (or resume) a design-space sweep (:mod:`repro.explore`): a
    declarative JSON :class:`repro.explore.SweepSpec` — grids/samples
    over workload-generator parameters, synthesis methods (SF/OS/OR/
    SAS/SAR, plain analysis/simulation, conformance probes) and bus
    knobs — evaluated through worker-sharded chunked dispatch with
    per-group Pareto fronts.  ``--store DIR`` persists every cell in a
    :class:`repro.store.ResultStore`; a re-run (or a crashed campaign
    restarted) with ``--resume`` skips everything already stored.
    ``--server URL`` runs the sweep through an evaluation service
    instead of locally (dedup and store live server-side).

``serve``
    Run the evaluation service (:mod:`repro.serve`): a long-running
    daemon that accepts evaluations, sweeps and conformance campaigns
    over HTTP (or a unix socket), coalesces duplicate requests by
    config hash, batches compatible work onto a supervised worker
    fleet (local forks and/or remote ``repro worker`` processes, with
    leases, retries, straggler hedging and a crash-safe pending-unit
    journal) and persists everything in one sharded result store.
    SIGTERM drains gracefully: in-flight work finishes and is
    checkpointed; a bounded drain abandons leftovers *visibly* (they
    stay journaled and re-dispatch on the next start).

``worker``
    Join a ``serve`` daemon as a remote worker: register, long-poll
    for dispatch units, heartbeat while computing, post results back.
    Workers never touch the store — any host with the codebase and a
    URL can contribute compute.

``submit`` / ``status``
    Client side of ``serve``: submit one evaluation (system + config
    JSON files) to a server and poll job status / service metrics
    (including the fleet census and supervision counters).

``trace`` / ``top``
    Observability surfaces of ``serve`` (:mod:`repro.obs`, enabled
    with ``REPRO_OBS=1``): ``trace`` renders a job's distributed span
    tree — client request → job → unit → dispatch attempts (retries
    and hedges as siblings) → worker compute → kernel phases — with
    the critical path marked, or exports it as JSONL /
    ``chrome://tracing`` JSON; ``top`` is a live fleet/queue/dedup/
    hedge dashboard polling ``/stats``.

``store``
    Inspect and maintain result stores: ``store stats DIR`` prints the
    shard layout, ``store migrate DIR`` rewrites a flat (pre-shard)
    store into the sharded layout, ``store compact DIR`` folds
    segments, ``store verify DIR`` audits every record's checksum
    without touching the store (exit 1 on damage).

``analyze`` / ``simulate`` / ``conform`` accept ``--faults`` (JSON or
``@file``): a declarative :class:`repro.faults.FaultSpec` of seeded
fault processes — CAN error/retransmission, degraded node or bus
speed, execution jitter, babbling-idiot traffic — injected into the
run (and, for the modeled classes, folded into the analysis bounds).

All commands are thin shells over :class:`repro.api.Session`; files are
the JSON formats of :mod:`repro.io.serialize`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .api import Session
from .exceptions import ReproError
from .io.report import schedulability_report, timing_report
from .io.serialize import (
    config_from_dict,
    config_to_dict,
    run_result_to_dict,
)
from .synth import WorkloadSpec

__all__ = ["main"]


def _load_config(path: str):
    with open(path) as handle:
        return config_from_dict(json.load(handle))


def _parse_faults(value: Optional[str]) -> Optional[str]:
    """A ``--faults`` argument: inline JSON or ``@file``, validated.

    Returns the canonical spec string (``None`` for absent/null specs),
    so every downstream key and record sees one spelling.
    """
    if value is None:
        return None
    if value.startswith("@"):
        with open(value[1:]) as handle:
            value = handle.read()
    from .faults import FaultSpec

    spec = FaultSpec.coerce(value)
    return None if spec is None else spec.canonical()


_FAULTS_HELP = (
    "fault spec as JSON or @file (repro.faults.FaultSpec): seeded CAN "
    "error/retransmission, degraded node/bus speed, execution jitter, "
    "babbling-idiot traffic; e.g. "
    '\'{"can_error_interval": 50, "can_error_overhead": 1}\''
)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        nodes=args.nodes,
        processes_per_node=args.processes_per_node,
        gateway_messages=args.gateway_messages,
        target_utilization=args.utilization,
        wcet_distribution=args.distribution,
        seed=args.seed,
        clusters=args.clusters,
        gateways=args.gateways,
        route_strategy=args.route_strategy,
    )
    session = Session.from_workload(spec)
    session.save(args.output)
    system = session.system
    print(
        f"wrote {args.output}: {system.app.process_count()} processes, "
        f"{system.app.message_count()} messages, "
        f"{len(system.arch.gateway_messages(system.app))} via the gateway"
    )
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    from .io.serialize import load_system

    system = load_system(args.system)
    topo = system.arch.topology
    plan = system.routing_for(None)
    supported = True
    support_error = None
    try:
        topo.check_engine_supported()
    except Exception as exc:
        supported = False
        support_error = str(exc)
    route_errors = []
    if args.config:
        config = _load_config(args.config)
        for name, route in sorted(config.routes.items()):
            try:
                src, dst = system.clusters_of_message(name)
                topo.validate_route(src, dst, tuple(route))
            except Exception as exc:
                route_errors.append({"message": name, "error": str(exc)})
    crossing = {
        name: list(plan.route_of(name))
        for name in sorted(plan.routes)
        if plan.legs_of(name)
    }
    payload = {
        "canonical": topo.is_canonical,
        "engine_supported": supported,
        "clusters": [
            {
                "name": c.name,
                "kind": c.kind,
                "nodes": list(c.nodes),
            }
            for c in (topo.clusters[n] for n in sorted(topo.clusters))
        ],
        "gateways": [
            {
                "node": g.node,
                "clusters": list(g.clusters),
                "transfer_wcet": system.arch.transfer_wcet_of(g.node),
            }
            for g in (topo.gateways[n] for n in sorted(topo.gateways))
        ],
        "crossing_messages": crossing,
    }
    if support_error is not None:
        payload["engine_support_error"] = support_error
    if args.config:
        payload["route_errors"] = route_errors
    ok = supported and not route_errors
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        shape = "canonical 2-cluster" if topo.is_canonical else "general"
        print(f"topology: {shape}, {len(topo.clusters)} clusters, "
              f"{len(topo.gateways)} gateway(s)")
        for c in payload["clusters"]:
            print(f"  cluster {c['name']} ({c['kind']}): "
                  f"{', '.join(c['nodes']) or '-'}")
        for g in payload["gateways"]:
            a, b = g["clusters"]
            print(f"  gateway {g['node']}: {a} <-> {b} "
                  f"(C_T={g['transfer_wcet']:g})")
        print(f"  inter-cluster messages: {len(crossing)}")
        if not supported:
            print(f"  UNSUPPORTED: {support_error}")
        for err in route_errors:
            print(f"  BAD ROUTE {err['message']}: {err['error']}")
    if args.validate:
        return 0 if ok else 1
    return 0


def _print_session_stats(session: Session) -> None:
    info = session.cache_info()
    print("session statistics:")
    print(f"  analysis wall-time: {info.analysis_time:.3f} s "
          f"({info.backend_calls} backend calls)")
    print(f"  memo cache: {info.hits} hits, {info.misses} misses, "
          f"{info.size} entries")
    print(f"  kernel: {info.kernel_compiles} full compiles, "
          f"{info.kernel_updates} incremental recompiles, "
          f"{info.reused_solves} reused solves, "
          f"{info.rows_solved} rows solved, "
          f"{info.rows_skipped} skipped")
    print(f"  sim kernel: {info.sim_compiles} template compiles, "
          f"{info.sim_reuses} reuses")
    if session.store is not None:
        print(f"  store: {info.store_hits} hits, "
              f"{info.store_writes} writes, "
              f"{info.store_write_errors} failed writes")


def _session_stats_payload(session: Session) -> dict:
    """The unified ``--stats`` JSON shape of a session-backed command.

    One schema (``repro.obs.metrics.stats_snapshot``) across analyze/
    simulate/conform/explore, under the payload's ``stats`` key.
    """
    from .obs.metrics import stats_snapshot

    info = session.cache_info()._asdict()
    timings = {"analysis_s": info.pop("analysis_time")}
    size = info.pop("size")
    return stats_snapshot(
        "session",
        counters=info,
        timings=timings,
        derived={"cache_entries": size},
    )


def _sweep_stats_payload(report, workers: int) -> dict:
    """Unified ``--stats`` shape of an explore sweep (see above)."""
    from .obs.metrics import stats_snapshot

    profile = dict(report.profile)
    store = profile.pop("store", None)
    counters = {
        "store_hits": profile.get("store_hits", 0),
        "computed": profile.get("computed", 0),
    }
    if store:
        counters["store_entries"] = store.get("entries", 0)
    timings = {
        "wall_s": profile.get("wall_s", 0.0),
        "cell_wall_s": profile.get("cell_wall_s", 0.0),
    }
    return stats_snapshot(
        "sweep", counters=counters, timings=timings,
        derived={"workers": workers},
    )


def _campaign_stats_payload(spec, report) -> dict:
    """Unified ``--stats`` shape of a conformance campaign (see above)."""
    from .obs.metrics import stats_snapshot

    profile = report.profile
    counters = {
        "seeds": spec.campaign,
        "sim_events": profile.get("sim_events", 0),
    }
    counters.update(report.counts)
    timings = {
        key: profile[key]
        for key in (
            "wall_s", "generate_s", "analyze_s", "simulate_s",
            "sim_compile_s", "sim_replay_s",
        )
        if key in profile
    }
    derived = {
        "seeds_per_s": profile.get("seeds_per_s", 0.0),
        "events_per_s": profile.get("events_per_s", 0.0),
        "workers": spec.workers,
    }
    return stats_snapshot(
        "campaign", counters=counters, timings=timings, derived=derived
    )


def _print_sim_stats(sim: dict) -> None:
    """Render a simulation run's engine instrumentation block."""
    print("simulation statistics:")
    print(f"  engine: {sim.get('engine', '?')}")
    if "compile_s" in sim:
        print(f"  compile: {sim['compile_s'] * 1000:.2f} ms")
    if "replay_s" in sim:
        print(f"  replay: {sim['replay_s'] * 1000:.2f} ms")
    if "events" in sim:
        print(
            f"  events: {sim['events']} "
            f"({sim.get('static_events', 0)} static template, "
            f"{sim.get('dynamic_events', 0)} dynamic), "
            f"{sim.get('events_per_s', 0.0):,.0f} events/s"
        )


def _cmd_analyze(args: argparse.Namespace) -> int:
    session = Session.from_file(args.system, store=args.store)
    config = _load_config(args.config)
    faults = _parse_faults(args.faults)
    options = {} if faults is None else {"faults": faults}
    run = session.evaluate(config, **options)
    validation = None
    if args.validate and not run.feasible:
        # Make the no-op explicit: an unanalysable configuration cannot
        # be validated, and a missing "validation" key would be
        # indistinguishable from --validate not having been passed.
        validation = {"skipped": f"analysis infeasible: {run.error}"}
    elif args.validate:
        sim_run = session.simulate(config, **options)
        if sim_run.feasible:
            # The full causal violation records (producer finish time,
            # gateway transfer window, consumer dispatch slot) ride
            # along so a dominance divergence is diagnosable from the
            # emitted JSON alone.
            validation = {
                "violations": sim_run.metadata["violations"],
                "violation_details": sim_run.metadata["violation_details"],
                "bound_excess": sim_run.metadata["bound_excess"],
            }
        else:
            validation = {"error": sim_run.error}
    if args.format == "json":
        payload = run_result_to_dict(run)
        if validation is not None:
            payload["validation"] = validation
        if args.stats:
            payload["stats"] = _session_stats_payload(session)
        print(json.dumps(payload, indent=2))
        return 0 if run.schedulable else 1
    if not run.feasible:
        print(f"configuration could not be analysed: {run.error}")
        if args.stats:
            print()
            _print_session_stats(session)
        return 1
    if args.timing:
        if run.analysis is not None:
            print(timing_report(session.system, run.analysis.rho))
        else:
            # Store-served results carry no rich ResponseTimes payload;
            # the flattened timing rows hold the same numbers.
            from .io.report import timing_rows_report

            print(timing_rows_report(run.timing))
        print()
    print(schedulability_report(session.system, run.report, run.buffers))
    if validation is not None:
        if "skipped" in validation:
            print(f"validation: skipped ({validation['skipped']})")
        elif "error" in validation:
            print(f"validation: simulation failed: {validation['error']}")
        else:
            print(
                f"validation: {validation['violations']} dispatch "
                f"violations, bound excess {validation['bound_excess']:.3f}"
            )
            for detail in validation["violation_details"]:
                print(f"  {json.dumps(detail, sort_keys=True)}")
    if args.stats:
        print()
        _print_session_stats(session)
    return 0 if run.schedulable else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        SweepInterrupted,
        SweepSpec,
        run_sweep,
        trap_signals,
    )

    spec = SweepSpec.from_file(args.sweep)
    if args.server:
        from .serve import run_sweep_via_server

        report = run_sweep_via_server(spec, args.server)
        return _render_explore_report(args, report)
    with trap_signals() as stop:
        try:
            report = run_sweep(
                spec,
                store=args.store,
                workers=args.workers,
                resume=not args.no_resume,
                stop=stop,
            )
        except SweepInterrupted as exc:
            done = exc.store_hits + exc.completed
            print(
                f"interrupted: {done}/{exc.total} cells done "
                f"({exc.completed} evaluated this run)", file=sys.stderr,
            )
            if args.store:
                print(
                    "resumable — rerun the same command with --resume to "
                    "continue from the store", file=sys.stderr,
                )
            else:
                print(
                    "no --store attached: completed cells were not "
                    "persisted; rerun with --store DIR to make sweeps "
                    "resumable", file=sys.stderr,
                )
            return 130
    return _render_explore_report(args, report)


def _render_explore_report(args: argparse.Namespace, report) -> int:
    from .io.report import sweep_report

    if args.format == "json":
        payload = report.to_dict()
        if args.stats:
            payload["stats"] = _sweep_stats_payload(report, args.workers)
        print(json.dumps(payload, indent=2))
        return 1 if report.errored else 0
    print(sweep_report(report))
    if args.stats:
        profile = report.profile
        print()
        print("sweep statistics:")
        print(f"  wall-clock: {profile['wall_s']:.2f} s "
              f"(cell compute time {profile['cell_wall_s']:.2f} s, "
              f"{args.workers} workers)")
        print(f"  store: {profile['store_hits']} cells resumed, "
              f"{profile['computed']} computed"
              + (f", {profile['store']['entries']} entries on disk"
                 if "store" in profile else " (no store attached)"))
    return 1 if report.errored else 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from collections import Counter

    from .conformance import (
        CampaignSpec,
        SeedOutcome,
        campaign_report,
        run_campaign,
    )
    from .explore import SweepInterrupted, trap_signals

    spec = CampaignSpec(
        campaign=args.campaign,
        seed0=args.seed0,
        workers=args.workers,
        periods=args.periods,
        nodes=args.nodes,
        processes_per_node=args.processes_per_node,
        shrink=not args.no_shrink,
        fixture_dir=args.out,
        faults=_parse_faults(args.faults),
        clusters=args.clusters,
        gateways=args.gateways,
        route_strategy=args.route_strategy,
    )
    if args.server:
        from .serve import run_sweep_via_server

        started = time.perf_counter()
        sweep = run_sweep_via_server(spec, args.server)
        report = campaign_report(spec, sweep.records, started)
        return _render_conform_report(args, spec, report)
    with trap_signals() as stop:
        try:
            report = run_campaign(spec, stop=stop)
        except SweepInterrupted as exc:
            # Units stream back in seed order: the seeds done are
            # contiguous from seed0.
            done = exc.completed
            counts = Counter(
                SeedOutcome.from_record(record).status
                for record in exc.records
            )
            tally = ", ".join(
                f"{status}: {counts[status]}" for status in sorted(counts)
            )
            print(
                f"interrupted: {done}/{spec.campaign} seeds done"
                + (f" ({tally})" if tally else ""), file=sys.stderr,
            )
            print(
                f"resumable — rerun with --seed0 {spec.seed0 + done} "
                f"--campaign {spec.campaign - done} to finish the range",
                file=sys.stderr,
            )
            return 130
    return _render_conform_report(args, spec, report)


def _render_conform_report(args: argparse.Namespace, spec, report) -> int:
    if args.format == "json":
        payload = report.to_dict()
        if args.profile or args.stats:
            payload["stats"] = _campaign_stats_payload(spec, report)
        print(json.dumps(payload, indent=2))
        return 0 if report.clean else 1
    counts = report.counts
    print(
        f"conformance campaign: {spec.campaign} workloads from seed "
        f"{spec.seed0} ({spec.workers} workers)"
    )
    for status in ("ok", "unschedulable", "error", "violation"):
        if counts.get(status):
            print(f"  {status}: {counts[status]}")
    for outcome in report.violating:
        print(f"  seed {outcome.seed}: {len(outcome.violations)} violations")
        for violation in outcome.violations:
            if violation.kind == "missing-message":
                # Here `observed` is the dispatch instant and `bound`
                # the (possibly never reached) arrival — a different
                # sentence than the bound-exceeded kinds.
                arrival = (
                    f"available at {violation.bound:.3f}"
                    if violation.bound != float("inf")
                    else "never available"
                )
                print(
                    f"    {violation.kind} {violation.activity}: "
                    f"dispatched at {violation.observed:.3f}, "
                    f"{violation.detail.get('missing_message', '?')} "
                    f"{arrival}"
                )
            else:
                print(
                    f"    {violation.kind} {violation.activity}: observed "
                    f"{violation.observed:.3f} > bound {violation.bound:.3f}"
                )
        if outcome.fixture:
            print(f"    counterexample fixture: {outcome.fixture}")
    for outcome in report.errored:
        print(f"  seed {outcome.seed}: evaluation error: {outcome.error}")
    if args.profile or args.stats:
        profile = report.profile
        print("campaign profile:")
        print(f"  wall-clock: {profile['wall_s']:.2f} s "
              f"({profile['seeds_per_s']:.0f} seeds/s, "
              f"{spec.workers} workers)")
        print(f"  per-phase: generate {profile['generate_s']:.2f} s, "
              f"analyze {profile['analyze_s']:.2f} s, "
              f"simulate {profile['simulate_s']:.2f} s")
        print(f"  sim kernel: compile {profile['sim_compile_s']:.2f} s, "
              f"replay {profile['sim_replay_s']:.2f} s, "
              f"{profile['sim_events']} events "
              f"({profile['events_per_s']:,.0f} events/s)")
    if report.clean:
        verdict = "CLEAN"
    elif report.violating:
        verdict = "VIOLATED"
    else:
        # Errors only: nothing was falsified, but nothing was verified
        # either — do not report a green contract.
        verdict = "NOT VERIFIED (evaluation errors)"
    print("dominance contract:", verdict)
    return 0 if report.clean else 1


def _cmd_synthesize(args: argparse.Namespace) -> int:
    session = Session.from_file(args.system)
    synth = session.synthesize(minimize_buffers=args.minimize_buffers)
    best = synth.best
    with open(args.output, "w") as handle:
        json.dump(config_to_dict(best.config), handle, indent=2)
    verdict = "schedulable" if best.schedulable else "NOT schedulable"
    print(
        f"wrote {args.output}: {verdict}, degree {best.degree:.1f}, "
        f"s_total {best.total_buffers:.0f} bytes "
        f"({synth.evaluations} analysis runs)"
    )
    return 0 if best.schedulable else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    session = Session.from_file(args.system, store=args.store)
    if args.config:
        config = _load_config(args.config)
    else:
        config = session.synthesize().config
    faults = _parse_faults(args.faults)
    sim_options = {} if faults is None else {"faults": faults}
    run = session.simulate(config, periods=args.periods, **sim_options)
    if args.format == "json":
        # The RunResult record already carries the engine counters in
        # metadata["sim"]; --stats adds the session's cache/kernel/store
        # statistics so dashboards can scrape one payload.
        payload = run_result_to_dict(run)
        if args.stats:
            payload["stats"] = _session_stats_payload(session)
        print(json.dumps(payload, indent=2))
        if not run.feasible:
            return 2
        return (
            0
            if run.metadata["bound_excess"] <= 1e-6
            and not run.metadata["violations"]
            else 2
        )
    if not run.feasible:
        print(f"configuration could not be simulated: {run.error}")
        return 2
    violations = run.metadata["violations"]
    print(f"simulated {args.periods} periods; "
          f"violations: {violations}")
    injected = run.metadata.get("fault_injection")
    if injected is not None:
        print(f"  fault injection: {injected.get('can_errors', 0)} CAN "
              f"errors, {injected.get('babble_frames', 0)} babble frames")
    observed_by_graph = run.metadata["observed_graph_response"]
    for graph_name in sorted(observed_by_graph):
        observed = observed_by_graph[graph_name]
        bound = run.graph_responses[graph_name]
        print(f"  {graph_name}: simulated {observed:.2f}, bound {bound:.2f}")
    if args.stats:
        print()
        _print_sim_stats(run.metadata.get("sim", {}))
        print()
        _print_session_stats(session)
    worst = run.metadata["bound_excess"]
    return 0 if worst <= 1e-6 and not violations else 2


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    session = Session.from_file(args.system)
    run = session.sensitivity(
        _load_config(args.config), upper=args.upper, top=args.top
    )
    margin = run.metadata.get("wcet_margin")
    unschedulable_at_nominal = margin is not None and (
        not margin["schedulable_at_factor"] and margin["factor"] == 1.0
    )
    if args.format == "json":
        print(json.dumps(run_result_to_dict(run), indent=2))
        return 1 if (margin is None or unschedulable_at_nominal) else 0
    if not run.feasible or margin is None:
        print(f"configuration could not be analysed: {run.error}")
        return 1
    print("most critical activities (slack to deadline):")
    for entry in run.metadata["critical_activities"]:
        print(f"  {entry['activity']}: {entry['slack']:.2f}")
    if unschedulable_at_nominal:
        print("system is not schedulable at nominal WCETs")
        return 1
    print(
        f"WCET scaling margin: factor {margin['factor']:.2f} "
        f"({margin['margin_percent']:.0f}% headroom, "
        f"{margin['iterations']} analysis runs)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import EvaluationService, serve
    from .serve.server import parse_listen
    from .serve.supervisor import SupervisorConfig
    from .store import ResultStore

    host, port = args.host, args.port
    if args.listen:
        host, port = parse_listen(args.listen)
    store = ResultStore(args.store)
    policy = SupervisorConfig()
    if args.lease is not None:
        policy.lease_s = args.lease
        policy.worker_timeout_s = 2 * args.lease
    if args.hedge_after is not None:
        policy.hedge_after_s = args.hedge_after
    if args.unit_retries is not None:
        policy.unit_retries = args.unit_retries
    service = EvaluationService(
        store,
        workers=args.workers,
        max_pending=args.max_pending,
        journal=not args.no_journal,
        supervisor=policy,
    )
    if service.recovered_units:
        from .obs.logging import get_logger

        get_logger("serve").info(
            f"recovered {service.recovered_units} journaled unit(s) "
            "from the previous run; re-dispatching"
        )
    return serve(
        service,
        host=host,
        port=port,
        socket_path=args.socket,
        verbose=args.verbose,
        drain_timeout=args.drain_timeout,
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    import contextlib
    import signal
    import threading

    from .serve.workers import run_worker

    stop = threading.Event()

    def _handler(signum, frame):  # noqa: ARG001 - signal API shape
        stop.set()

    with contextlib.suppress(ValueError):  # not the main thread (tests)
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _handler)
    return run_worker(
        args.connect,
        label=args.label,
        stop=stop,
        poll_s=args.poll,
        reconnect_s=args.reconnect,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    with open(args.system) as handle:
        system = json.load(handle)
    with open(args.config) as handle:
        config = json.load(handle)
    options = json.loads(args.options) if args.options else {}
    client = ServeClient(args.server, timeout=args.timeout)
    submitted = client.evaluate(
        system, config, backend=args.backend, options=options
    )
    if args.no_wait:
        print(json.dumps(submitted, indent=2))
        return 0
    payload = client.result(submitted["id"], timeout=args.timeout)
    if args.format == "json":
        payload["deduplicated"] = submitted["deduplicated"]
        payload["store_hit"] = submitted["store_hit"]
        print(json.dumps(payload, indent=2))
        return 0 if payload["status"] == "done" else 1
    if payload["status"] != "done":
        print(f"evaluation failed: {payload.get('error')}", file=sys.stderr)
        return 1
    result = payload["result"]
    verdict = "schedulable" if result["schedulable"] else "NOT schedulable"
    via = (
        "store" if submitted["store_hit"]
        else "deduplicated" if submitted["deduplicated"]
        else "computed"
    )
    print(
        f"{submitted['id']}: {verdict}, degree {result['degree']:.1f}, "
        f"s_total {result['total_buffers']:.0f} bytes ({via})"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    client = ServeClient(args.server, timeout=args.timeout)
    if not args.id:
        stats = client.stats()
        if args.format == "json":
            print(json.dumps(stats, indent=2))
        else:
            print(_render_stats(args.server, stats))
        return 0
    payloads = [client.status(job_id) for job_id in args.id]
    if args.format == "json":
        print(json.dumps(payloads, indent=2))
    else:
        for payload in payloads:
            line = f"{payload['id']}: {payload['status']}"
            if "progress" in payload:
                progress = payload["progress"]
                line += (f" ({progress['done']}/{progress['total']} done, "
                         f"{progress['store_hits']} from store)")
            if payload.get("error"):
                line += f" — {payload['error']}"
            print(line)
    return 0 if all(p["status"] != "error" for p in payloads) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.export import (
        chrome_trace,
        read_spans_jsonl,
        render_span_tree,
        write_spans_jsonl,
    )

    if args.file:
        spans = read_spans_jsonl(args.file)
        if args.job:
            # A trace file can hold many traces; keep the one(s) whose
            # serve.job span names the requested job.
            traces = {
                entry.get("trace")
                for entry in spans
                if entry.get("attrs", {}).get("job") == args.job
            }
            spans = [e for e in spans if e.get("trace") in traces]
        if not spans:
            print(f"no spans found in {args.file}", file=sys.stderr)
            return 1
    else:
        if not args.server:
            print("trace: --server URL (or --file PATH) is required",
                  file=sys.stderr)
            return 2
        if not args.job:
            print("trace: a job id is required with --server",
                  file=sys.stderr)
            return 2
        from .serve import ServeClient
        from .serve.client import ServerError

        client = ServeClient(args.server, timeout=args.timeout)
        try:
            payload = client.trace(args.job)
        except ServerError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 1
        spans = payload.get("spans") or []
        if not spans:
            print(f"no spans recorded for job {args.job}", file=sys.stderr)
            return 1
    if args.export == "jsonl":
        out = args.output or "trace.jsonl"
        count = write_spans_jsonl(spans, out)
        print(f"wrote {count} span(s) to {out}")
        return 0
    if args.export == "chrome":
        out = args.output or "trace-chrome.json"
        with open(out, "w") as handle:
            json.dump(chrome_trace(spans), handle)
        print(f"wrote chrome trace ({len(spans)} span(s)) to {out}; "
              "load it in chrome://tracing or ui.perfetto.dev")
        return 0
    print(render_span_tree(spans))
    return 0


def _render_stats(server: str, stats: dict) -> str:
    """A server's ``/stats`` payload as text: the output of ``repro
    status --server`` and one frame of ``repro top``."""
    counters = stats["counters"]
    timings = stats["timings"]
    store = stats["store"]
    lines = [
        f"server {server}  (up {stats['uptime_s']:.0f} s, "
        f"{stats['workers']} workers"
        + (", obs on)" if stats.get("obs_enabled") else ")"),
        f"  queue   {stats['queue_depth']:>6} waiting   "
        f"{stats['in_flight_units']:>6} in flight   "
        f"{stats['evals_per_s']:>8.1f} evals/s",
        f"  work    {counters['submitted']:>6} submitted "
        f"{counters['computed']:>6} computed    "
        f"{counters['errors']:>6} errors",
        f"  dedup   {counters['dedup_hits']:>6} coalesced "
        f"{counters['store_hits']:>6} store hits",
        f"  latency {timings['queue_wait_s_avg']:>8.3f} s queue wait   "
        f"{timings['unit_compute_s_avg']:.3f} s unit compute",
        f"  store   {store['entries']:>6} entries   "
        f"{store['segments']:>6} segments   {store['shards']} shards",
    ]
    supervisor = stats.get("supervisor") or {}
    if supervisor:
        lines += [
            f"  deliver {supervisor.get('retries', 0):>6} retries   "
            f"{supervisor.get('hedges', 0):>4} hedges "
            f"({supervisor.get('hedge_wins', 0)} won, "
            f"{supervisor.get('hedge_wasted', 0)} wasted)   "
            f"{supervisor.get('expired_leases', 0)} leases expired",
            f"  faults  {supervisor.get('worker_failures', 0):>6} worker "
            f"failures   {supervisor.get('deadline_expired', 0)} deadlines "
            f"expired   {supervisor.get('inline_units', 0)} inline "
            "degradations",
        ]
    fleet = stats.get("fleet") or []
    if fleet:
        lines.append(f"  fleet   {len(fleet)} worker(s)")
        for worker in fleet:
            name = worker.get("label") or worker["id"]
            state = "alive" if worker["alive"] else "LOST "
            lines.append(
                f"    {state} {name:<20} [{worker['transport']}] "
                f"{worker['in_flight']} in flight, "
                f"{worker['completed']} done, {worker['failed']} failed"
            )
    recovered = stats.get("recovered_units", 0)
    if recovered:
        lines.append(f"  recovered: {recovered} journaled unit(s) "
                     "re-dispatched at startup")
    abandoned = stats.get("abandoned") or []
    if abandoned:
        lines.append(f"  ABANDONED: {len(abandoned)} unit(s) dropped by a "
                     "timed-out drain (journaled): "
                     + ", ".join(entry["id"] for entry in abandoned))
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .serve import ServeClient
    from .serve.client import ServerError

    client = ServeClient(args.server, timeout=args.timeout)
    try:
        while True:
            try:
                frame = _render_stats(args.server, client.stats())
                code = 0
            except (OSError, ServerError) as exc:
                frame = f"repro top — {args.server}: unreachable ({exc})"
                code = 2  # what `repro status` exits with
            if not args.once:
                # ANSI clear + home; a rolling log when not a tty.
                if sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                else:
                    print()
            print(frame, flush=True)
            if args.once:
                return code
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import ResultStore

    store = ResultStore(args.dir)
    if args.store_command == "stats":
        per_shard = store.shard_stats()
        payload = {
            "layout": store.layout,
            "entries": store.stats.entries,
            "segments": store.stats.segments,
            "shards": store.stats.shards,
            "per_shard": per_shard,
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
            return 0
        print(f"{args.dir}: {store.layout} layout, "
              f"{store.stats.entries} entries in "
              f"{store.stats.segments} segments")
        for shard in sorted(per_shard):
            info = per_shard[shard]
            print(f"  {shard}: {info['entries']} entries, "
                  f"{info['segments']} segments, {info['bytes']} bytes")
        return 0
    if args.store_command == "migrate":
        # Opening a pre-shard store migrated it; the compaction below
        # folds the copies (and applies --shard-prefix).
        if not store.migrated:
            print(f"{args.dir}: already sharded; nothing to do")
            store.close()
            return 0
        count = store.migrate(shard_prefix=args.shard_prefix)
        print(f"{args.dir}: migrated {count} records into "
              f"{store.stats.shards} shards")
        store.close()
        return 0
    if args.store_command == "compact":
        count = store.compact(max_entries=args.max_entries)
        print(f"{args.dir}: compacted to {count} records in "
              f"{store.stats.segments} segments")
        store.close()
        return 0
    if args.store_command == "verify":
        report = store.verify()
        store.close()
        if args.format == "json":
            print(json.dumps(report, indent=2))
            return 0 if report["clean"] else 1
        print(f"{args.dir}: {report['entries']} entries "
              f"({report['records']} records, {report['duplicates']} "
              f"duplicate appends) in {report['segments']} segments, "
              f"{report['bytes']} bytes")
        for item in report["corrupt"]:
            print(f"  corrupt: {item['path']} @{item['offset']} "
                  f"({item['reason']})")
        if report["corrupt_total"] > len(report["corrupt"]):
            print(f"  ... {report['corrupt_total']} corrupt lines total")
        for item in report["torn"]:
            print(f"  torn tail: {item['path']} @{item['offset']} "
                  f"({item['bytes']} bytes)")
        if report["misplaced"]:
            print(f"  misplaced records: {report['misplaced']}")
        for item in report["unreadable"]:
            print(f"  unreadable: {item['path']} ({item['error']})")
        print("store integrity:", "CLEAN" if report["clean"] else "DAMAGED")
        return 0 if report["clean"] else 1
    raise AssertionError(f"unknown store command {args.store_command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Schedulability analysis and synthesis for multi-cluster "
            "(TTP/CAN) distributed embedded systems (Pop/Eles/Peng, "
            "DATE 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random workload")
    gen.add_argument("output", help="system JSON file to write")
    gen.add_argument("--nodes", type=int, default=4)
    gen.add_argument("--processes-per-node", type=int, default=40)
    gen.add_argument("--gateway-messages", type=int, default=None)
    gen.add_argument("--utilization", type=float, default=0.25)
    gen.add_argument(
        "--distribution", choices=["uniform", "exponential"], default="uniform"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--clusters", type=int, default=2,
        help="cluster count (1 TT + N-1 ET; 2 = the canonical topology)",
    )
    gen.add_argument(
        "--gateways", type=int, default=1,
        help="gateway count (>= ET cluster count)",
    )
    gen.add_argument(
        "--route-strategy",
        choices=["default", "greedy", "random"],
        default="default",
        help="seeded route assignment for inter-cluster messages",
    )
    gen.set_defaults(func=_cmd_generate)

    topo = sub.add_parser(
        "topo", help="show or validate a system's cluster topology"
    )
    topo.add_argument("system", help="system JSON file")
    topo.add_argument(
        "--config",
        help="configuration JSON file whose route overrides to check",
    )
    topo.add_argument(
        "--validate", action="store_true",
        help="exit 1 when the topology is engine-unsupported or a "
        "route override is invalid",
    )
    topo.add_argument("--format", choices=["text", "json"], default="text")
    topo.set_defaults(func=_cmd_topo)

    ana = sub.add_parser("analyze", help="analyse a configuration")
    ana.add_argument("system", help="system JSON file")
    ana.add_argument("config", help="configuration JSON file")
    ana.add_argument(
        "--timing", action="store_true", help="print the per-activity table"
    )
    ana.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits the RunResult record)",
    )
    ana.add_argument(
        "--stats", action="store_true",
        help="print session statistics (analysis wall-time, kernel "
             "compiles/incremental recompiles, memoization counters)",
    )
    ana.add_argument(
        "--validate", action="store_true",
        help="also simulate and report dispatch violations with full "
             "causal context (producer finish, gateway transfer window, "
             "consumer slot)",
    )
    ana.add_argument(
        "--store", default=None,
        help="persistent result-store directory (second memo tier: "
             "results computed here are shared with every session "
             "pointing at the same directory)",
    )
    ana.add_argument("--faults", default=None, help=_FAULTS_HELP)
    ana.set_defaults(func=_cmd_analyze)

    conf = sub.add_parser(
        "conform",
        help="fuzz the analysis-dominates-simulation contract",
    )
    conf.add_argument(
        "--campaign", type=int, default=100,
        help="number of seeded random workloads (default 100)",
    )
    conf.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1 = serial)",
    )
    conf.add_argument("--seed0", type=int, default=0)
    conf.add_argument("--periods", type=int, default=3)
    conf.add_argument("--nodes", type=int, default=2)
    conf.add_argument("--processes-per-node", type=int, default=8)
    conf.add_argument(
        "--clusters", type=int, default=2,
        help="cluster count of every generated workload (1 TT + N-1 ET; "
             "default 2 = the paper's canonical shape)",
    )
    conf.add_argument(
        "--gateways", type=int, default=1,
        help="gateway count (>= ET cluster count; extras bridge "
             "TT<->ET pairs round-robin and open routing freedom)",
    )
    conf.add_argument(
        "--route-strategy", choices=["default", "greedy", "random"],
        default="default", dest="route_strategy",
        help="seeded route assignment for inter-cluster messages "
             "(non-default strategies also grow TDMA slots to fit the "
             "relayed payloads)",
    )
    conf.add_argument(
        "--out", default=None,
        help="directory for shrunken counterexample fixtures "
             "(default: do not persist)",
    )
    conf.add_argument(
        "--no-shrink", action="store_true",
        help="persist violating workloads without minimizing them first",
    )
    conf.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits the full campaign report)",
    )
    conf.add_argument(
        "--profile", action="store_true",
        help="print the campaign's per-phase timings and events/sec "
             "(generation / analysis / simulation, sim-kernel "
             "compile vs replay)",
    )
    conf.add_argument(
        "--stats", action="store_true",
        help="alias of --profile; with --format json the counters are "
             "already machine-readable in the report's 'profile' key",
    )
    conf.add_argument(
        "--server", default=None,
        help="evaluation-service URL: run the campaign through "
             "`repro serve` (counterexample fixtures are still pinned "
             "locally under --out)",
    )
    conf.add_argument(
        "--faults", default=None,
        help=_FAULTS_HELP + "; modeled-only specs keep the dominance "
             "check (bounds must absorb the faults), unmodeled specs "
             "switch each seed to a bit-exact determinism replay",
    )
    conf.set_defaults(func=_cmd_conform)

    syn = sub.add_parser("synthesize", help="synthesize a configuration")
    syn.add_argument("system", help="system JSON file")
    syn.add_argument("output", help="configuration JSON file to write")
    syn.add_argument(
        "--minimize-buffers",
        action="store_true",
        help="run OptimizeResources after OptimizeSchedule",
    )
    syn.set_defaults(func=_cmd_synthesize)

    sim = sub.add_parser("simulate", help="simulate a configuration")
    sim.add_argument("system", help="system JSON file")
    sim.add_argument(
        "--config", help="configuration JSON (default: synthesize one)"
    )
    sim.add_argument("--periods", type=int, default=4)
    sim.add_argument(
        "--stats", action="store_true",
        help="print engine statistics (compile/replay timings, "
             "events/sec) and the session's kernel counters",
    )
    sim.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits the RunResult record; with "
             "--stats it gains a stats key)",
    )
    sim.add_argument(
        "--store", default=None,
        help="persistent result-store directory (second memo tier; "
             "see `analyze --store`)",
    )
    sim.add_argument("--faults", default=None, help=_FAULTS_HELP)
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser(
        "explore",
        help="run or resume a design-space sweep with Pareto tracking",
    )
    exp.add_argument(
        "--sweep", required=True,
        help="sweep specification JSON (repro.explore.SweepSpec)",
    )
    exp.add_argument(
        "--store", default=None,
        help="result-store directory: completed cells persist here and "
             "are skipped on re-runs (default: in-memory only)",
    )
    exp.add_argument(
        "--resume", action="store_true",
        help="skip cells already present in the store (the default; "
             "kept explicit for scripts)",
    )
    exp.add_argument(
        "--no-resume", action="store_true",
        help="re-evaluate every cell even when the store has it",
    )
    exp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1 = serial; serial and "
             "parallel runs produce identical reports)",
    )
    exp.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits the full sweep report)",
    )
    exp.add_argument(
        "--stats", action="store_true",
        help="print wall-clock and store statistics after the tables",
    )
    exp.add_argument(
        "--server", default=None,
        help="evaluation-service URL (http://host:port or unix:/path): "
             "run the sweep through `repro serve` instead of locally; "
             "dedup and the result store live server-side",
    )
    exp.set_defaults(func=_cmd_explore)

    srv = sub.add_parser(
        "serve",
        help="run the evaluation service (daemon with dedup, batching, "
             "a worker pool and a sharded result store)",
    )
    srv.add_argument(
        "--store", required=True,
        help="sharded result-store directory (created if missing; a "
             "flat pre-shard store is migrated on open)",
    )
    srv.add_argument(
        "--workers", type=int, default=2,
        help="persistent worker processes (default 2; 0 = inline "
             "execution, for sandboxes without fork)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8763,
        help="TCP port (default 8763; 0 = pick a free port)",
    )
    srv.add_argument(
        "--socket", default=None,
        help="serve on a unix socket at this path instead of TCP "
             "(clients use unix:/path URLs)",
    )
    srv.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="bind address as one flag (overrides --host/--port; "
             ":PORT binds 127.0.0.1)",
    )
    srv.add_argument(
        "--max-pending", type=int, default=1024,
        help="bound on queued + in-flight dispatch units; submissions "
             "beyond it answer 429 with Retry-After (default 1024)",
    )
    srv.add_argument(
        "--lease", type=float, default=None, metavar="SECONDS",
        help="per-unit lease: a remote worker must heartbeat within "
             "this window or the unit is re-dispatched (default 15; "
             "also sets the worker silence timeout to twice it)",
    )
    srv.add_argument(
        "--hedge-after", type=float, default=None, metavar="SECONDS",
        help="speculatively duplicate a unit still running after this "
             "many seconds (default: adaptive, 4x the observed latency "
             "of its kind)",
    )
    srv.add_argument(
        "--unit-retries", type=int, default=None,
        help="worker failures tolerated per unit before it resolves "
             "as an error (default 3)",
    )
    srv.add_argument(
        "--no-journal", action="store_true",
        help="disable the crash-safe pending-unit journal (a killed "
             "server then loses in-flight work)",
    )
    srv.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="bound the shutdown drain; work still pending after it is "
             "abandoned visibly (journaled and listed in the exit "
             "message) instead of waited on forever",
    )
    srv.add_argument(
        "--verbose", action="store_true",
        help="log every request to stderr",
    )
    srv.set_defaults(func=_cmd_serve)

    wrk = sub.add_parser(
        "worker",
        help="join a `repro serve` daemon as a remote worker "
             "(register, long-poll for units, heartbeat, post results)",
    )
    wrk.add_argument(
        "--connect", required=True, metavar="URL",
        help="service URL (http://host:port or unix:/path)",
    )
    wrk.add_argument(
        "--label", default=None,
        help="human-readable name shown in the server's fleet census",
    )
    wrk.add_argument(
        "--poll", type=float, default=None, metavar="SECONDS",
        help="long-poll window (default: the server's advertised one)",
    )
    wrk.add_argument(
        "--reconnect", type=float, default=2.0, metavar="SECONDS",
        help="wait between reconnection attempts when the server is "
             "unreachable (default 2)",
    )
    wrk.set_defaults(func=_cmd_worker)

    sbm = sub.add_parser(
        "submit", help="submit one evaluation to a `repro serve` daemon"
    )
    sbm.add_argument("system", help="system JSON file")
    sbm.add_argument("config", help="configuration JSON file")
    sbm.add_argument(
        "--server", required=True,
        help="service URL (http://host:port or unix:/path)",
    )
    sbm.add_argument(
        "--backend", choices=["analysis", "simulation"], default="analysis",
    )
    sbm.add_argument(
        "--options", default=None,
        help='evaluation options as JSON (e.g. \'{"periods": 4}\')',
    )
    sbm.add_argument(
        "--no-wait", action="store_true",
        help="print the submission envelope and exit without waiting "
             "(poll later with `repro status`)",
    )
    sbm.add_argument("--timeout", type=float, default=600.0)
    sbm.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits the full result payload)",
    )
    sbm.set_defaults(func=_cmd_submit)

    sts = sub.add_parser(
        "status",
        help="poll job status or service metrics of a `repro serve` daemon",
    )
    sts.add_argument(
        "id", nargs="*",
        help="job ids to poll (none: print the service's /stats)",
    )
    sts.add_argument("--server", required=True, help="service URL")
    sts.add_argument("--timeout", type=float, default=30.0)
    sts.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    sts.set_defaults(func=_cmd_status)

    trc = sub.add_parser(
        "trace",
        help="render a job's distributed trace as a span tree "
             "(critical path marked), or export it",
    )
    trc.add_argument(
        "job", nargs="?", default=None,
        help="job id (required with --server; with --file it filters "
             "the export to that job's trace)",
    )
    trc.add_argument(
        "--server", default=None,
        help="service URL: fetch the trace from GET /trace "
             "(the daemon must run with REPRO_OBS=1)",
    )
    trc.add_argument(
        "--file", default=None, metavar="PATH",
        help="read spans from a JSONL export (the daemon's "
             "serve-trace.jsonl or a REPRO_OBS_TRACE client flush) "
             "instead of a server",
    )
    trc.add_argument(
        "--export", choices=["chrome", "jsonl"], default=None,
        help="write the spans out instead of rendering: 'chrome' = "
             "chrome://tracing / Perfetto trace-event JSON, 'jsonl' = "
             "one span per line",
    )
    trc.add_argument(
        "--output", default=None,
        help="output file for --export (default trace-chrome.json / "
             "trace.jsonl)",
    )
    trc.add_argument("--timeout", type=float, default=30.0)
    trc.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="live fleet/queue/dedup/hedge view of a `repro serve` "
             "daemon (polls /stats)",
    )
    top.add_argument("--server", required=True, help="service URL")
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (scripts, tests)",
    )
    top.add_argument("--timeout", type=float, default=10.0)
    top.set_defaults(func=_cmd_top)

    sto = sub.add_parser(
        "store", help="inspect and maintain result stores"
    )
    sto_sub = sto.add_subparsers(dest="store_command", required=True)
    sto_stats = sto_sub.add_parser(
        "stats", help="print layout, entry counts and per-shard sizes"
    )
    sto_stats.add_argument("dir", help="store directory")
    sto_stats.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    sto_stats.set_defaults(func=_cmd_store)
    sto_migrate = sto_sub.add_parser(
        "migrate",
        help="rewrite a flat (pre-shard) store into the sharded layout",
    )
    sto_migrate.add_argument("dir", help="store directory")
    sto_migrate.add_argument(
        "--shard-prefix", type=int, default=None,
        help="hex-prefix length of the shard fan-out (default 1 = 16 "
             "shards)",
    )
    sto_migrate.set_defaults(func=_cmd_store)
    sto_compact = sto_sub.add_parser(
        "compact", help="fold segments (optionally evicting to a limit)"
    )
    sto_compact.add_argument("dir", help="store directory")
    sto_compact.add_argument(
        "--max-entries", type=int, default=None,
        help="evict oldest records beyond this count",
    )
    sto_compact.set_defaults(func=_cmd_store)
    sto_verify = sto_sub.add_parser(
        "verify",
        help="offline integrity audit: checksum every record, report "
             "corrupt/torn lines and the segment census (read-only; "
             "exit 1 on damage)",
    )
    sto_verify.add_argument("dir", help="store directory")
    sto_verify.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    sto_verify.set_defaults(func=_cmd_store)

    sens = sub.add_parser(
        "sensitivity", help="robustness margins of a configuration"
    )
    sens.add_argument("system", help="system JSON file")
    sens.add_argument("config", help="configuration JSON file")
    sens.add_argument("--upper", type=float, default=4.0)
    sens.add_argument("--top", type=int, default=5)
    sens.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits the RunResult record)",
    )
    sens.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe reader (e.g. `| head`) closed early; exit with
        # the conventional SIGPIPE status instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ReproError as exc:
        # A typed failure the command did not handle itself (say, a
        # store directory of another format): one line, not a traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    finally:
        from .obs import state as _obs_state

        if _obs_state.enabled and _obs_state.trace_path:
            # Client half of a distributed trace: flush this process's
            # finished spans (client.request roots, local session
            # spans) so they can be joined with the daemon's
            # serve-trace.jsonl by trace id.
            from .obs.trace import flush_spans_to

            flush_spans_to(_obs_state.trace_path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
