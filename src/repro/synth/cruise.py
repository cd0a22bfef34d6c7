"""The real-life vehicle cruise controller (CC) example of section 6.

The paper's CC model has 40 processes mapped on a two-cluster
architecture with two TTC nodes, two ETC nodes and a gateway; the
"speedup" part of the functionality runs on the ETC, the rest on the TTC;
one operating mode with a deadline of 250 ms.

The exact process graph is not published, so this module reconstructs a
functionally plausible CC with the stated topology (the quantities that
matter to the experiments — process count, cluster split, the number of
gateway crossings, one 40-process graph with a 250 ms deadline — are
matched; WCETs are chosen so the straightforward configuration misses the
deadline while the optimized ones meet it, the qualitative result the
paper reports: SF 320 ms > 250 ms; OS/SAS 185 ms).

Functional blocks:

* **acquisition** (TT1): wheel-speed and engine-state filtering chain;
* **reference** (TT2): driver-interface debouncing and set-point logic;
* **speedup control** (ET1/ET2): the PI speed controller, acceleration
  limiter and overshoot supervisor — the event-driven "speedup" part;
* **actuation** (TT1/TT2): throttle command synthesis and the final
  actuator driver (the end-to-end sink);
* **diagnostics** (ET2): logging/plausibility checks off the control path.
"""

from __future__ import annotations

from typing import List

from ..buses.can import CanBusSpec
from ..buses.ttp import TTPBusSpec
from ..model.application import Application, Dependency, Message, Process, ProcessGraph
from ..model.architecture import Architecture
from ..system import System

__all__ = ["cruise_controller_system", "CRUISE_DEADLINE", "CRUISE_PERIOD"]

#: Deadline of the cruise-controller mode (ms), as in the paper.
CRUISE_DEADLINE = 250.0
#: Activation period of the CC mode (ms).
CRUISE_PERIOD = 300.0


def _chain(
    processes: List[Process],
    dependencies: List[Dependency],
    names: List[str],
    node: str,
    wcets: List[float],
) -> None:
    """Append a same-node chain of processes linked by dependencies."""
    for name, wcet in zip(names, wcets):
        processes.append(Process(name=name, wcet=wcet, node=node))
    for a, b in zip(names, names[1:]):
        dependencies.append(Dependency(src=a, dst=b))


def cruise_controller_system() -> System:
    """Build the cruise-controller system (see module docstring)."""
    processes: List[Process] = []
    dependencies: List[Dependency] = []
    messages: List[Message] = []

    # -- acquisition on TT1 (8 processes) ---------------------------------
    _chain(
        processes,
        dependencies,
        [f"acq{i}" for i in range(8)],
        node="TT1",
        wcets=[2.88, 4.32, 3.6, 2.88, 4.32, 3.6, 2.88, 4.32],
    )

    # -- reference / driver interface on TT2 (8 processes) ----------------
    _chain(
        processes,
        dependencies,
        [f"ref{i}" for i in range(8)],
        node="TT2",
        wcets=[2.16, 3.6, 2.88, 4.32, 2.88, 3.6, 2.16, 3.6],
    )

    # -- speedup control on ET1 (8 processes) -----------------------------
    _chain(
        processes,
        dependencies,
        [f"ctl{i}" for i in range(8)],
        node="ET1",
        wcets=[3.6, 5.04, 4.32, 5.76, 4.32, 5.04, 3.6, 4.32],
    )

    # -- supervisor on ET2 (8 processes) -----------------------------------
    _chain(
        processes,
        dependencies,
        [f"sup{i}" for i in range(8)],
        node="ET2",
        wcets=[2.88, 3.6, 4.32, 3.6, 2.88, 4.32, 3.6, 2.88],
    )

    # -- actuation on TT1/TT2 (8 processes; act7 is the end-to-end sink) ---
    _chain(
        processes,
        dependencies,
        [f"act{i}" for i in range(4)],
        node="TT1",
        wcets=[2.88, 3.6, 2.88, 3.6],
    )
    _chain(
        processes,
        dependencies,
        [f"act{i}" for i in range(4, 8)],
        node="TT2",
        wcets=[3.6, 2.88, 3.6, 2.88],
    )
    dependencies.append(Dependency(src="act3", dst="act4"))

    # -- inter-block messages ----------------------------------------------
    # Control path: acquisition -> controller (TT->ET), reference ->
    # controller (TT->ET), controller -> actuation (ET->TT).
    messages.append(Message("m_speed", src="acq7", dst="ctl0", size=8))
    messages.append(Message("m_setpt", src="ref7", dst="ctl1", size=8))
    messages.append(Message("m_cmd", src="ctl7", dst="act0", size=12))
    # Supervisor taps: controller state to the supervisor (ET->ET) and a
    # supervisor override into the actuation chain (ET->TT).
    messages.append(Message("m_state", src="ctl4", dst="sup0", size=16))
    messages.append(Message("m_limit", src="sup7", dst="act4", size=8))
    # Acquisition snapshot for the supervisor (TT->ET).
    messages.append(Message("m_snap", src="acq5", dst="sup2", size=16))

    graph = ProcessGraph(
        name="CC",
        period=CRUISE_PERIOD,
        deadline=CRUISE_DEADLINE,
        processes=processes,
        messages=messages,
        dependencies=dependencies,
    )
    app = Application([graph])
    arch = Architecture(
        tt_nodes=["TT1", "TT2"],
        et_nodes=["ET1", "ET2"],
        gateway="NG",
        gateway_transfer_wcet=0.5,
    )
    can_spec = CanBusSpec(bit_time=0.02)  # 50 kbit/s body-domain CAN
    ttp_spec = TTPBusSpec(byte_time=1.0, slot_overhead=7.0)
    return System(app, arch, can_spec=can_spec, ttp_spec=ttp_spec)
