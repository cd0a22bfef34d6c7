"""The repository benchmark: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth|conform|serve|all \\
        --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``synth`` — cold ``repro.explore.run_sweep`` over seeded canonical
  2-cluster workloads with the SF, OS, OR and SAS heuristics;
* ``conform`` — ``repro.conformance.run_campaign`` over seeded
  4-cluster, 4-gateway systems with random multi-hop routes;
* ``serve`` — a ``repro serve`` daemon under open-loop HTTP load
  (see ``serve_load.py``).

With ``--trace 0`` the run repeats the workload in fresh interpreters
(``rep.py``) for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs one repetition alternately untraced and traced
(``layers.py``), and reports the per-layer metrics and the tracing
overhead.  Either way it checks the outputs and prints a table
followed by one JSON line::

Set-up times, and the times and rates of ``synth`` and ``conform``, are
given at a reference speed of the host: each timed section is scaled by
speed samples of fixed pure-Python work taken right before and after
it (``calibrate.py``), because the shared host's own speed drifts by
more than the bounds.  The raw rates are printed beside them as notes.
``serve`` latencies and rates stay raw (see ``serve_load.py``).

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Everything the run writes lives under ``.perfbench_tmp/`` in the
repository and is removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = ("synth", "conform", "serve")
#: Minimum repetitions of ``synth``/``conform`` per timed run.
MIN_REPS = 3
#: Untraced/traced pairs behind ``trace.overhead_s`` (synth, conform).
OVERHEAD_PAIRS = 3
#: A hung repetition is stopped after REP_TIMEOUT_S (SIGTERM, then
#: SIGKILL after TERM_GRACE_S) so that a run ends within 180 s.
REP_TIMEOUT_S = 120.0
TERM_GRACE_S = 15.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "p50_ms": ("ms", "lower"),
    "p95_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}

#: What an item and a unit of throughput are, per workload.
ITEMS = {
    "synth": ("one candidate-design evaluation (OS/OR/SAS cell wall / "
              "evaluations)",
              "design evaluations per second of sweep, median of repetitions"),
    "conform": ("one campaign seed (generate + analyze + simulate)",
                "seeds per second of campaign, median of repetitions"),
    "serve": ("one steady-phase request, due to result observed",
              "completed requests per second under overload, median of "
              "sections"),
}

SERVE_METRICS = {
    "serve.submit_ms": ("ms", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.unit_compute_s": ("s", "lower"),
    "serve.batch_size": ("count", "higher"),
    "serve.dedup_ratio": ("ratio", "higher"),
    "serve.retries": ("count", "lower"),
    "serve.hedges": ("count", "lower"),
    "serve.hedge_wasted": ("count", "lower"),
    "serve.worker_failures": ("count", "lower"),
}
#: Daemon spans with no in-process layer of the same meaning.
SERVE_SPAN_ROWS = ("serve.job", "serve.unit", "serve.attempt",
                   "worker.compute")
#: Daemon spans that stand in for an in-process layer on ``serve``.
SPAN_LAYERS = {
    "kernel.solve": "analysis.solve",
    "session.evaluate": "api.evaluate",
    "store.get": "store.get",
    "store.put": "store.put",
}
LOAD_METRICS = {
    f"load.{phase}.{kind}": ("count", better)
    for phase in ("steady", "overload")
    for kind, better in (("sent", "higher"), ("succeeded", "higher"),
                         ("failed", "lower"), ("refused", "lower"))
}
LOAD_METRICS["load.max_lateness_ms"] = ("ms", "lower")


def per_layer_spec() -> Dict[str, Tuple[str, str]]:
    """Per-layer metrics: name -> (unit, better)."""
    sys.path.insert(0, str(HERE))
    from layers import LAYERS

    spec: Dict[str, Tuple[str, str]] = {}
    for name in LAYERS:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    spec["analysis.multicluster.iterations"] = ("count", "lower")
    spec["api.evaluate.hit_ratio"] = ("ratio", "higher")
    spec["sim.events"] = ("count", "lower")
    spec["sim.events_per_s"] = ("1/s", "higher")
    spec.update(SERVE_METRICS)
    for name in SERVE_SPAN_ROWS:
        spec[f"span.{name}.calls"] = ("count", "lower")
        spec[f"span.{name}.self_s"] = ("s", "lower")
    spec.update(LOAD_METRICS)
    spec["trace.overhead_s"] = ("s", "lower")
    return spec


# -- running repetitions -----------------------------------------------------


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS", None)
    return env


def run_rep(workload: str, seed: int, rep: int, tmp: Path, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its JSON result."""
    workdir = tmp / f"{workload}-{rep}{'-traced' if trace else ''}"
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "rep.py"), workload,
        "--seed", str(seed), "--rep", str(rep), "--tmp", str(workdir),
        "--seconds", str(seconds),
    ] + (["--trace"] if trace else [])
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=str(ROOT), env=child_env(tmp), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        # Timeout or our own termination: SIGTERM lets the repetition
        # reap what it started (the serve daemon) before it exits.
        proc.terminate()
        try:
            proc.communicate(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition {rep} exited {proc.returncode}:\n"
            f"{stderr[-2000:]}"
        )
    shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; a failed request's
    infinite latency sorts last."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    if position == low:
        return ordered[low]
    if ordered[high] == float("inf"):
        return float("inf")
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def check_digest(workload: str, seed: int, rep: Dict[str, Any]) -> List[str]:
    """Rep 0 of the default seed must reproduce the recorded digest."""
    if seed != EXPECTED["default_seed"]:
        return []
    expected = EXPECTED["digests"].get(workload)
    if rep["digest"] != expected:
        return [f"{workload} digest {rep['digest']} != recorded {expected}"]
    return []


def timed_batch(workload: str, seed: int, seconds: float,
                tmp: Path) -> Dict[str, Any]:
    """``synth``/``conform``: repetitions until ``seconds`` have passed."""
    reps: List[Dict[str, Any]] = []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        reps.append(run_rep(workload, seed, len(reps), tmp, seconds, False))
    items = [x for rep in reps for x in rep["items_ms"]]
    problems = check_digest(workload, seed, reps[0])
    for rep in reps:
        problems += rep["problems"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    # Medians over repetitions, so that a burst of load from outside
    # the benchmark moves a minority of samples, not the result.
    return {
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "p50_ms": percentile(items, 0.50),
            "p95_ms": percentile(items, 0.95),
            "throughput_per_s": statistics.median(
                r["work"] / r["ref_s"] for r in reps
            ),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": {
            "repetitions": len(reps),
            "items": len(items),
            "work": sum(r["work"] for r in reps),
            "repetition_wall_s_median": statistics.median(
                r["wall_s"] for r in reps
            ),
            "raw_throughput_per_s": statistics.median(
                r["work"] / r["wall_s"] for r in reps
            ),
            "host_slowdown_vs_reference": statistics.median(
                r["wall_s"] / r["ref_s"] for r in reps
            ),
            "fail_ratio": failed / attempted,
        },
    }


def traced_batch(workload: str, seed: int, seconds: float,
                 tmp: Path) -> Dict[str, Any]:
    """``synth``/``conform``: repetition 0, alternately untraced and
    traced :data:`OVERHEAD_PAIRS` times; the overhead is the difference
    of the median reference-speed times, the layer table that of the
    first traced run (call counts are identical in all of them)."""
    runs = [
        run_rep(workload, seed, 0, tmp, seconds, trace)
        for _ in range(OVERHEAD_PAIRS) for trace in (False, True)
    ]
    plain, traced = runs[0::2], runs[1::2]
    problems = check_digest(workload, seed, plain[0])
    for run in runs:
        problems += run["problems"]
        if run["digest"] != plain[0]["digest"]:
            problems.append("a traced or repeated run changed the outputs")
    metrics = {name: 0 for name in per_layer_spec()}
    metrics.update(traced[0]["layers"])
    traced_s = statistics.median(r["ref_s"] for r in traced)
    plain_s = statistics.median(r["ref_s"] for r in plain)
    metrics["trace.overhead_s"] = traced_s - plain_s
    return {
        "metrics": metrics,
        "attempted": traced[0]["attempted"],
        "failed": traced[0]["failed"],
        "problems": problems,
        "notes": {"traced_wall_s": traced_s, "untraced_wall_s": plain_s},
    }


def serve_phase_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    """Load accounting of one serve run."""
    metrics: Dict[str, float] = {}
    for phase, data in out["phases"].items():
        for kind in ("sent", "succeeded", "failed", "refused"):
            metrics[f"load.{phase}.{kind}"] = data[kind]
    metrics["load.max_lateness_ms"] = max(
        data["max_lateness_ms"] for data in out["phases"].values()
    )
    return metrics


def serve_totals(out: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    phases = out["phases"].values()
    attempted = sum(p["sent"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    return attempted, failed, list(out["problems"])


def serve_batch(seed: int, seconds: float, tmp: Path,
                trace: bool) -> Dict[str, Any]:
    if not trace:
        out = run_rep("serve", seed, 0, tmp, seconds, False)
        attempted, failed, problems = serve_totals(out)
        steady = out["phases"]["steady"]
        overload = out["phases"]["overload"]
        notes = serve_phase_metrics(out)
        notes["fail_ratio"] = failed / attempted
        notes["steady_samples"] = len(steady["latencies_ms"])
        return {
            "metrics": {
                "setup_s": out["setup_s"],
                "peak_rss_mb": out["peak_rss_mb"],
                "p50_ms": percentile(steady["latencies_ms"], 0.50),
                "p95_ms": percentile(steady["latencies_ms"], 0.95),
                "throughput_per_s": overload["per_s"],
            },
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "notes": notes,
        }
    # Traced: the same load at half length, untraced then with the
    # daemon's own spans on (REPRO_OBS=1).
    plain = run_rep("serve", seed, 0, tmp, seconds / 2, False)
    traced = run_rep("serve", seed, 0, tmp, seconds / 2, True)
    attempted, failed, problems = serve_totals(traced)
    problems += serve_totals(plain)[2]
    stats = traced["stats"]
    counters, supervisor = stats["counters"], stats["supervisor"]
    submitted = counters["submitted"] or 1
    metrics = {name: 0 for name in per_layer_spec()}
    metrics.update({
        "serve.submit_ms": percentile(
            traced["phases"]["steady"]["submit_ms"], 0.50
        ),
        "serve.queue_wait_s": stats["timings"]["queue_wait_s_avg"],
        "serve.unit_compute_s": stats["timings"]["unit_compute_s_avg"],
        "serve.batch_size": counters["computed"] / max(
            1, supervisor["dispatched"]
        ),
        "serve.dedup_ratio": (
            (counters["dedup_hits"] + counters["store_hits"]) / submitted
        ),
        "serve.retries": supervisor["retries"],
        "serve.hedges": supervisor["hedges"],
        "serve.hedge_wasted": supervisor["hedge_wasted"],
        "serve.worker_failures": supervisor["worker_failures"],
    })
    spans = traced["spans"]
    for name in SERVE_SPAN_ROWS:
        row = spans.get(name, {"count": 0, "self_s": 0.0})
        metrics[f"span.{name}.calls"] = row["count"]
        metrics[f"span.{name}.self_s"] = row["self_s"]
    for span_name, layer in SPAN_LAYERS.items():
        row = spans.get(span_name, {"count": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = row["count"]
        metrics[f"{layer}.self_s"] = row["self_s"]
    metrics.update(serve_phase_metrics(traced))
    metrics["trace.overhead_s"] = (
        traced["phases"]["overload"]["wall_s"]
        - plain["phases"]["overload"]["wall_s"]
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": {
            "traced_overload_wall_s": traced["phases"]["overload"]["wall_s"],
            "untraced_overload_wall_s": plain["phases"]["overload"]["wall_s"],
            "traced_p50_ms": percentile(
                traced["phases"]["steady"]["latencies_ms"], 0.5),
            "untraced_p50_ms": percentile(
                plain["phases"]["steady"]["latencies_ms"], 0.5),
        },
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tmp: Path) -> Dict[str, Any]:
    if workload == "serve":
        return serve_batch(seed, seconds, tmp, trace)
    if trace:
        return traced_batch(workload, seed, seconds, tmp)
    return timed_batch(workload, seed, seconds, tmp)


# -- output ------------------------------------------------------------------


def render(workload: str, result: Dict[str, Any], trace: bool) -> str:
    spec = per_layer_spec() if trace else END_TO_END
    lines = [f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'})"]
    if not trace:
        item, rate = ITEMS[workload]
        lines.append(f"   item: {item}; throughput: {rate}")
    metrics = result["metrics"]
    if trace:
        # Every layer's call count (zero says the workload bypasses it),
        # other rows only where non-zero; self time as a share of the sum.
        from layers import LAYERS

        always = {f"{name}.calls" for name in LAYERS}
        total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        for name, (unit, _) in spec.items():
            value = metrics[name]
            if not value and name not in always:
                continue
            share = ""
            if name.endswith(".self_s") and total > 0:
                share = f"  ({100.0 * value / total:5.1f}% of traced self time)"
            lines.append(f"   {name:<42} {value:>14.6g} {unit}{share}")
    else:
        for name, (unit, better) in spec.items():
            lines.append(
                f"   {name:<18} {metrics[name]:>14.6g} {unit:<6} "
                f"({better} is better)"
            )
    for name, value in result["notes"].items():
        lines.append(f"   [{name}] {value:.6g}" if isinstance(value, float)
                     else f"   [{name}] {value}")
    for problem in result["problems"][:20]:
        lines.append(f"   CHECK FAILED: {problem}")
    return "\n".join(lines)


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    spec = per_layer_spec() if trace else END_TO_END
    return {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, (unit, _) in spec.items()
        },
    }


def _exit_on_signal(signum, frame):  # noqa: ARG001 - signal API shape
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    # SIGTERM unwinds like an exception, so repetitions are stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / str(os.getpid())
    tmp.mkdir(parents=True)
    lines = []
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  tmp)
            print(render(workload, result, trace), flush=True)
            lines.append((workload, result_line(result, trace)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {
                f"{workload}.{name}": value
                for workload, line in lines
                for name, value in line["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
