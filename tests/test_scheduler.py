"""Unit tests for the static list scheduler (schedule tables, MEDL)."""

import pytest

from repro.exceptions import SchedulingError
from repro.buses import Slot, TTPBusConfig
from repro.model import Application, Dependency, Message, Process, ProcessGraph
from oracles import downstream_urgency
from repro.schedule import static_schedule
from repro.system import System
from repro.model.architecture import Architecture

from helpers import simple_bus, two_node_config, two_node_system


def tt_only_system(extra_messages=()):
    """Two TT nodes with a cross-node message and same-node dependency."""
    graph = ProcessGraph(
        name="G",
        period=100.0,
        deadline=100.0,
        processes=[
            Process("A", wcet=5.0, node="TT1"),
            Process("B", wcet=4.0, node="TT2"),
            Process("C", wcet=3.0, node="TT1"),
        ],
        messages=[Message("m", src="A", dst="B", size=8), *extra_messages],
        dependencies=[Dependency(src="A", dst="C")],
    )
    app = Application([graph])
    arch = Architecture(tt_nodes=["TT1", "TT2"], et_nodes=["ET1"], gateway="NG")
    return System(app, arch)


def tt_bus():
    return TTPBusConfig(
        [
            Slot("TT1", capacity=8, duration=5.0),
            Slot("TT2", capacity=8, duration=5.0),
            Slot("NG", capacity=8, duration=5.0),
        ]
    )


class TestListScheduler:
    def test_precedence_on_same_node(self):
        sched = static_schedule(tt_only_system(), tt_bus())
        offsets = sched.offsets
        a_end = offsets.process_offset("A") + 5.0
        assert offsets.process_offset("C") >= a_end

    def test_cross_node_message_after_sender(self):
        sched = static_schedule(tt_only_system(), tt_bus())
        frame = sched.frame_of("m")
        assert frame is not None
        a_end = sched.offsets.process_offset("A") + 5.0
        assert frame.start >= a_end
        # Receiver starts only after the frame is fully received.
        assert sched.offsets.process_offset("B") >= frame.end

    def test_message_arrival_is_slot_end(self):
        sched = static_schedule(tt_only_system(), tt_bus())
        frame = sched.frame_of("m")
        assert sched.message_arrival["m"] == frame.end

    def test_node_timeline_no_overlap(self):
        sched = static_schedule(tt_only_system(), tt_bus())
        for node, entries in sched.tables.items():
            for e1, e2 in zip(entries, entries[1:]):
                assert e1.end <= e2.start + 1e-9

    def test_frame_capacity_respected(self):
        msgs = [Message(f"x{i}", src="A", dst="B", size=8) for i in range(3)]
        sched = static_schedule(tt_only_system(extra_messages=msgs), tt_bus())
        for frame in sched.medl.values():
            assert frame.used_bytes <= frame.capacity
        # 4 messages of 8 bytes into 8-byte slots -> 4 distinct frames.
        frames = {id(sched.frame_of(m)) for m in ["m", "x0", "x1", "x2"]}
        assert len(frames) == 4

    def test_oversized_message_raises(self):
        system = tt_only_system()
        small = TTPBusConfig(
            [
                Slot("TT1", capacity=4, duration=5.0),
                Slot("TT2", capacity=8, duration=5.0),
                Slot("NG", capacity=8, duration=5.0),
            ]
        )
        with pytest.raises(SchedulingError):
            static_schedule(system, small)

    def test_tt_delays_shift_start(self):
        system = tt_only_system()
        base = static_schedule(system, tt_bus())
        delayed = static_schedule(system, tt_bus(), tt_delays={"C": 20.0})
        # The delay lower-bounds the start at release + delay.
        assert delayed.offsets.process_offset("C") >= 20.0
        assert base.offsets.process_offset("C") < 20.0

    def test_et_offsets_propagated(self):
        system = two_node_system()
        config = two_node_config()
        sched = static_schedule(system, config.bus)
        # B is fed by ma (TT->ET): offset equals the frame arrival.
        assert sched.offsets.process_offset("B") == sched.message_arrival["ma"]
        # mb is ET-sent: offset is sender's earliest completion.
        assert sched.offsets.message_offset("mb") == pytest.approx(
            sched.offsets.process_offset("B") + 4.0
        )

    def test_arrival_floor_pushes_receiver(self):
        system = two_node_system()
        config = two_node_config()
        base = static_schedule(system, config.bus)
        floored = static_schedule(
            system, config.bus, arrival_floors={"mb": 77.0}
        )
        assert floored.offsets.process_offset("C") >= 77.0
        assert base.offsets.process_offset("C") < 77.0

    def test_urgency_is_longest_tail(self):
        system = tt_only_system()
        image = system.image
        urgency = dict(zip(image.proc_names, image.proc_urgency))
        assert urgency["A"] == max(5.0 + 4.0, 5.0 + 3.0)
        assert urgency["B"] == 4.0
        assert urgency["C"] == 3.0
        assert urgency == downstream_urgency(system.app.graphs["G"])

    def test_makespan_reported(self):
        sched = static_schedule(tt_only_system(), tt_bus())
        ends = [e.end for entries in sched.tables.values() for e in entries]
        assert sched.makespan == max(ends)
