"""The section 4.1 queueing rules, asserted through the holistic analysis.

Each rule of the CAN ``Out_Ni``/``Out_CAN`` equation (section 4.1.1) and
of the gateway ``Out_TTP`` FIFO (section 4.1.2) is checked on the
compiled kernel via :func:`response_time_analysis`.  Every message has
its own ET sender node, so no sender's busy window delays another and
each message's CAN queueing jitter is 0: the expected values follow by
hand from the rules alone (frame time 2, no gateway transfer time).
"""

import math

from repro.analysis import response_time_analysis
from repro.buses import CanBusSpec, Slot, TTPBusConfig
from repro.model import (
    Application,
    Architecture,
    Message,
    OffsetTable,
    PriorityAssignment,
    Process,
    ProcessGraph,
)
from repro.system import System


def one_sender_per_node(n_messages, receiver, periods=None, period=100.0):
    """Messages ``m<i>`` from ``s<i>`` on ET node ``E<i>`` to ``d<i>`` on
    ``receiver``, one small graph each (``R`` is an extra ET node)."""
    graphs = []
    for i in range(n_messages):
        graph_period = periods[i] if periods else period
        graphs.append(
            ProcessGraph(
                name=f"g{i}",
                period=graph_period,
                deadline=graph_period,
                processes=[
                    Process(f"s{i}", wcet=1.0, node=f"E{i}"),
                    Process(f"d{i}", wcet=1.0, node=receiver),
                ],
                messages=[Message(f"m{i}", src=f"s{i}", dst=f"d{i}", size=8)],
            )
        )
    et_nodes = [f"E{i}" for i in range(n_messages)]
    if receiver == "R":
        et_nodes.append("R")
    arch = Architecture(tt_nodes=["TT1"], et_nodes=et_nodes, gateway="NG")
    return System(
        Application(graphs), arch, can_spec=CanBusSpec(fixed_frame_time=2.0)
    )


def can_system(periods=None, period=100.0):
    """Three ET->ET messages, m0 highest priority."""
    return one_sender_per_node(3, "R", periods=periods, period=period)


def ettt_system(n_messages, periods=None):
    """ET->TT messages through the gateway ``Out_TTP`` FIFO."""
    return one_sender_per_node(n_messages, "TT1", periods=periods)


def analyse(system, message_offsets, bus=None):
    """ρ at the given message offsets (every process at offset 0)."""
    n = len(system.app.graphs)
    priorities = PriorityAssignment(
        {f"{kind}{i}": 2 * i + (kind == "d") + 1
         for i in range(n) for kind in "sd"},
        {f"m{i}": i + 1 for i in range(n)},
    )
    return response_time_analysis(
        system, OffsetTable({}, message_offsets), priorities,
        bus or gw_bus(),
    )


def queuing(rho, msg):
    return rho.can[msg].queuing


ZERO = {"m0": 0.0, "m1": 0.0, "m2": 0.0}


class TestCanBlocking:
    """m0 has no higher-priority interferer: its CAN queueing delay is
    its blocking ``B_m`` alone (m2, the lowest, has no blocking)."""

    def test_lowest_priority_has_no_blocking(self):
        # m0/m1 are released half a period after m2: they neither block
        # nor interfere, and nothing has a lower priority than m2.
        rho = analyse(can_system(), {"m0": 50.0, "m1": 50.0, "m2": 0.0})
        assert queuing(rho, "m2") == 0.0

    def test_phase_locked_later_sibling_does_not_block(self):
        # m1/m2 are queued at or after m0's offset: no blocking for m0.
        rho = analyse(can_system(), {"m0": 0.0, "m1": 0.0, "m2": 5.0})
        assert queuing(rho, "m0") == 0.0

    def test_phase_locked_earlier_sibling_blocks(self):
        # m1 is queued 10 before m0 and can be on the wire: B = C = 2.
        rho = analyse(can_system(), {"m0": 10.0, "m1": 0.0, "m2": 10.0})
        assert queuing(rho, "m0") == 2.0

    def test_unlocked_message_always_blocks(self):
        # m1 has a different period: it can be mid-flight at any phase.
        rho = analyse(can_system(periods=[100.0, 150.0, 100.0]), ZERO)
        assert queuing(rho, "m0") == 2.0


class TestCanQueueing:
    def test_simultaneous_higher_priority_counts_once(self):
        # m0 released at the same instant wins arbitration: one frame.
        rho = analyse(can_system(), ZERO)
        assert rho.can["m1"].converged and queuing(rho, "m1") == 2.0

    def test_top_priority_zero_delay_when_alone_first(self):
        rho = analyse(can_system(), ZERO)
        assert queuing(rho, "m0") == 0.0

    def test_bus_overload_diverges(self):
        # hp utilization for m2: 2*2/5 = 0.8 -> converges (one m0 and
        # one m1 frame ahead).
        rho = analyse(can_system(period=5.0), ZERO)
        assert rho.can["m2"].converged and queuing(rho, "m2") == 4.0
        # Shrink the period below sustainability: 2 frames of 2 in 3.9.
        rho = analyse(can_system(period=3.9), ZERO)
        assert not rho.can["m2"].converged
        assert math.isinf(queuing(rho, "m2"))


def gw_bus(capacity=8):
    """Round 20: TT1's slot [0, 10), the gateway slot [10, 20)."""
    return TTPBusConfig(
        [
            Slot("TT1", capacity=16, duration=10.0),
            Slot("NG", capacity=capacity, duration=10.0),
        ]
    )


class TestTtpQueue:
    """An ET->TT message enters ``Out_TTP`` at ``O_m + r_m^CAN``; its
    CAN response is ``w + C``, so 2 for m0, 4 for m1 and 6 for m2 when
    all three are released together."""

    def test_blocking_is_wait_to_gateway_slot(self):
        system = ettt_system(1)
        # Queue instants 20, 10 and 12 (offset + 2).
        for offset, wait in ((18.0, 10.0), (8.0, 0.0), (10.0, 18.0)):
            rho = analyse(system, {"m0": offset})
            assert rho.ttp["m0"].queuing == wait

    def test_fits_next_slot_no_extra_round(self):
        rho = analyse(ettt_system(1), {"m0": 0.0})
        # Queued at 2, nothing ahead: just the wait until the slot at 10.
        assert rho.ttp["m0"].queuing == 8.0

    def test_bytes_ahead_force_extra_rounds(self):
        rho = analyse(ettt_system(3), ZERO, gw_bus(capacity=8))
        # m2 is queued at 6; m0 and m1 (8 bytes each) are ahead of it in
        # the FIFO and an 8-byte slot takes one whole frame per round:
        # two extra rounds.
        assert rho.ttp["m2"].queuing == 4.0 + 2 * 20.0

    def test_larger_slot_drains_faster(self):
        system = ettt_system(3)
        small = analyse(system, ZERO, gw_bus(capacity=8))
        big = analyse(system, ZERO, gw_bus(capacity=24))
        # All three frames ride one 24-byte slot.
        assert big.ttp["m2"].queuing == 4.0
        assert big.ttp["m2"].queuing < small.ttp["m2"].queuing

    def test_bytes_ahead_window_scaling(self):
        # Round 100 with the gateway slot first, one frame per slot.  m0
        # (period 200) is unlocked from m1 (period 400): within m1's
        # window w it is counted ceil((w + J_m0) / 200) times, J_m0 = 4.
        system = ettt_system(2, periods=[200.0, 400.0])
        bus = TTPBusConfig(
            [
                Slot("NG", capacity=8, duration=10.0),
                Slot("TT1", capacity=16, duration=90.0),
            ]
        )
        # Queued at 4: wait 96, one m0 frame ahead, one extra round;
        # w + J_m0 = 200 spans a single m0 period.
        rho = analyse(system, {"m0": 0.0, "m1": 0.0}, bus)
        assert rho.ttp["m1"].queuing == 96.0 + 100.0
        # Queued at 103: wait 97, and the window 197 + 4 reaches m0's
        # second release: two frames ahead, two extra rounds.
        rho = analyse(system, {"m0": 0.0, "m1": 99.0}, bus)
        assert rho.ttp["m1"].queuing == 97.0 + 2 * 100.0
