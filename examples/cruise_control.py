#!/usr/bin/env python3
"""The real-life example of section 6: a vehicle cruise controller.

40 processes on two TTC nodes, two ETC nodes and a gateway; the "speedup"
control part runs event-triggered, acquisition/actuation time-triggered;
one mode with a 250 ms deadline.

Reproduces the paper's comparison: the straightforward configuration (SF)
misses the deadline, OptimizeSchedule (OS) produces a schedulable system,
and OptimizeResources (OR) then shrinks the buffer need while staying
schedulable (the paper reports SF 320 > 250 ms, OS/SAS 185 ms, OR -24%
buffers within 6% of SAR).  OS and OR run through one
:class:`repro.api.Session`, sharing its analysis memo cache.

Run:  python examples/cruise_control.py
"""

from repro.analysis import graph_response_time
from repro.api import Session
from repro.io import comparison_table
from repro.optim import optimize_resources, run_straightforward
from repro.synth import CRUISE_DEADLINE, cruise_controller_system


def main() -> None:
    session = Session(cruise_controller_system())
    system = session.system
    print(f"Cruise controller: {system.app.process_count()} processes, "
          f"{system.app.message_count()} messages, deadline {CRUISE_DEADLINE:.0f} ms\n")

    rows = []

    sf = run_straightforward(system)
    sf_r = graph_response_time(system, sf.analysis.rho, "CC")
    rows.append(["SF", f"{sf_r:.0f}", "yes" if sf.schedulable else "NO",
                 f"{sf.total_buffers:.0f}"])

    synth = session.synthesize()
    os_result = synth.os_result
    os_r = graph_response_time(system, os_result.best.analysis.rho, "CC")
    rows.append(["OS", f"{os_r:.0f}", "yes" if os_result.schedulable else "NO",
                 f"{os_result.best.total_buffers:.0f}"])

    or_result = optimize_resources(
        system, os_result=os_result, max_iterations=15, max_climbs=4,
        session=session,
    )
    or_r = graph_response_time(system, or_result.best.analysis.rho, "CC")
    rows.append(["OR", f"{or_r:.0f}", "yes" if or_result.schedulable else "NO",
                 f"{or_result.total_buffers:.0f}"])

    print(comparison_table(
        f"Cruise controller (deadline {CRUISE_DEADLINE:.0f} ms)",
        ["heuristic", "r_CC [ms]", "schedulable", "s_total [B]"],
        rows,
    ))
    saved = 1.0 - or_result.total_buffers / os_result.best.total_buffers
    print(f"\nOR reduced the buffer need by {100 * saved:.0f}% vs OS "
          f"(paper: 24%).")
    info = session.cache_info()
    print(f"(session cache: {info.backend_calls} analysis runs, "
          f"{info.hits} memo hits)")


if __name__ == "__main__":
    main()
