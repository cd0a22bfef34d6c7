"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no
process-level cache (for example the sweep engine's per-workload
state) carries over from one repetition to the next.  It prints one
JSON object as its last stdout line:

* ``setup_s`` — from the parent's spawn of this interpreter to the
  first timed call (interpreter start, imports, input generation), at
  the reference speed of the host's first speed sample;
* ``wall_s``, ``ref_s``, ``work`` and ``items_ms`` — the timed calls
  in raw and reference-speed seconds (``calibrate.py``), the units of
  work they completed and the reference-speed latency of each item;
* ``attempted``/``failed``, ``digest`` and ``problems`` — the output
  checks;
* ``layers`` — per-layer calls and self time, with ``--trace``.

Usage: ``python3 perfbench/rep.py WORKLOAD --seed N --rep K
--spawned-at T --tmp DIR [--seconds S] [--trace]``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import ReferenceClock  # noqa: E402 - after the path setup

#: ``synth``: canonical 2-cluster workloads per repetition and their
#: size (2 nodes x 10 processes), swept with the paper's heuristics.
SYNTH_WORKLOADS = 4
SYNTH_SPEC = {"nodes": 2, "processes_per_node": 10}
SYNTH_METHODS = ("SF", "OS", "OR", "SAS")
SYNTH_OPTIONS = {"sa_iterations": 40}
#: ``conform``: seeds per repetition on a 4-cluster, 4-gateway topology
#: with seeded random multi-hop routes.
CONFORM_SEEDS = 300
#: Seeds per timed section of a ``conform`` repetition (~0.2 s).
CONFORM_CHUNK = 30
CONFORM_SPEC = {"clusters": 4, "gateways": 4, "nodes": 6,
                "route_strategy": "random", "shrink": False}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def synth_rep(seed: int, rep: int, tmp: Path, clock: ReferenceClock):
    """One cold sweep per workload, so that the reference clock samples
    the host's speed between workloads (~0.5 s each); items are ms per
    candidate-design evaluation of each iterative heuristic's cell (OS,
    OR, SAS)."""
    from repro.explore.engine import run_sweep
    from repro.explore.spec import SweepSpec
    from repro.store import ResultStore

    first = seed * 1000 + rep * SYNTH_WORKLOADS
    store = ResultStore(tmp / "store")
    ready = time.monotonic()
    records, errored, sections, items_ms = [], [], [], []
    for workload_seed in range(first, first + SYNTH_WORKLOADS):
        spec = SweepSpec(
            name="perfbench-synth",
            workload={**SYNTH_SPEC, "seed": [workload_seed]},
            methods=SYNTH_METHODS,
            options=SYNTH_OPTIONS,
        )
        report, scale = clock.run(run_sweep, spec, store=store)
        data = report.to_dict()
        sections.append({k: data[k] for k in ("cells", "fronts", "counts")})
        records += report.records
        errored += report.errored
        items_ms += [
            1000.0 * scale * r["wall_s"] / r["metrics"]["evaluations"]
            for r in report.records
            if r["method"] != "SF" and not r["error"]
        ]
    store.close()
    return ready, {
        "work": sum(r["metrics"].get("evaluations", 0) for r in records),
        "items_ms": items_ms,
        "attempted": len(records),
        "failed": len(errored),
        "digest": digest(sections),
        "problems": [
            f"cell {r['index']} ({r['method']}): {r['error']}"
            for r in errored
        ],
    }


def conform_rep(seed: int, rep: int, tmp: Path, clock: ReferenceClock):
    """One campaign, run as consecutive campaigns of
    :data:`CONFORM_CHUNK` seeds so that the reference clock samples the
    host's speed every few tenths of a second; items are ms of
    generate+analyze+simulate per seed (the campaign's own per-seed
    profile)."""
    from repro.conformance.campaign import CampaignSpec, run_campaign

    first = seed * 100000 + rep * CONFORM_SEEDS
    ready = time.monotonic()
    outcomes, items_ms, clean = [], [], True
    for offset in range(0, CONFORM_SEEDS, CONFORM_CHUNK):
        spec = CampaignSpec(campaign=CONFORM_CHUNK, seed0=first + offset,
                            **CONFORM_SPEC)
        report, scale = clock.run(run_campaign, spec)
        clean = clean and report.clean
        outcomes += report.outcomes
        items_ms += [
            1000.0 * scale * sum(o.profile.get(k, 0.0) for k in (
                "generate_s", "analyze_s", "simulate_s", "determinism_s"))
            for o in report.outcomes
        ]
    bad = [o for o in outcomes if o.status in ("error", "violation")]
    return ready, {
        "work": len(outcomes),
        "items_ms": items_ms,
        "attempted": len(outcomes),
        "failed": len(bad),
        "digest": digest([
            [o.seed, o.status, sorted(v.kind for v in o.violations)]
            for o in outcomes
        ]),
        "problems": (
            [] if clean else
            [f"seed {o.seed}: {o.status} {o.error or ''}" for o in bad]
        ),
    }


def _exit_on_signal(signum, frame):  # noqa: ARG001 - signal API shape
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("synth", "conform", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "serve":
        import os
        import signal

        from serve_load import run_serve

        # SIGTERM from run.py unwinds through run_serve's cleanup, which
        # reaps the daemon.
        signal.signal(signal.SIGTERM, _exit_on_signal)
        out = run_serve(ROOT, args.tmp, dict(os.environ), args.seed,
                        args.seconds, obs=args.trace,
                        spawned_at=args.spawned_at)
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    run = synth_rep if args.workload == "synth" else conform_rep
    clock = ReferenceClock()
    ready, out = run(args.seed, args.rep, args.tmp, clock)
    out["wall_s"] = clock.wall_s
    out["ref_s"] = clock.ref_s
    out["setup_s"] = (ready - args.spawned_at) * clock.initial_scale
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["layers"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
