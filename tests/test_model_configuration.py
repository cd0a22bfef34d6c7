"""Unit tests for configurations ψ: priorities, offsets, validation."""

import pytest

from repro.api import Session
from repro.buses import Slot, TTPBusConfig
from repro.conformance import conformance_configuration
from repro.exceptions import ConfigurationError
from repro.model import (
    OffsetTable,
    PriorityAssignment,
    SystemConfiguration,
    validate_configuration,
)
from repro.synth.workload import WorkloadSpec, generate_workload

from helpers import two_node_config, two_node_system
from oracles.deltas import offsets_max_abs_delta


class TestPriorityAssignment:
    def test_missing_priority_raises(self):
        pa = PriorityAssignment()
        with pytest.raises(ConfigurationError):
            pa.process_priority("P")
        with pytest.raises(ConfigurationError):
            pa.message_priority("m")

    def test_swap_processes(self):
        pa = PriorityAssignment({"a": 1, "b": 2}, {})
        pa.swap_processes("a", "b")
        assert pa.process_priority("a") == 2
        assert pa.process_priority("b") == 1

    def test_swap_messages(self):
        pa = PriorityAssignment({}, {"x": 3, "y": 7})
        pa.swap_messages("x", "y")
        assert pa.message_priority("x") == 7
        assert pa.message_priority("y") == 3

    def test_copy_is_independent(self):
        pa = PriorityAssignment({"a": 1}, {"m": 1})
        clone = pa.copy()
        clone.process_priorities["a"] = 99
        assert pa.process_priority("a") == 1

    def test_duplicate_process_priority_same_node_rejected(self):
        system = two_node_system()
        pa = PriorityAssignment(
            {"B": 1, "X": 1}, {"ma": 1, "mb": 2}
        )
        with pytest.raises(ConfigurationError):
            pa.validate(system.app, system.arch)

    def test_duplicate_message_priority_rejected(self):
        system = two_node_system()
        pa = PriorityAssignment(
            {"B": 1, "X": 2}, {"ma": 1, "mb": 1}
        )
        with pytest.raises(ConfigurationError):
            pa.validate(system.app, system.arch)

    def test_valid_assignment_passes(self):
        system = two_node_system()
        two_node_config().priorities.validate(system.app, system.arch)


class TestOffsetTable:
    def test_lookup_errors(self):
        table = OffsetTable()
        with pytest.raises(ConfigurationError):
            table.process_offset("P")
        with pytest.raises(ConfigurationError):
            table.message_offset("m")

    def test_max_abs_delta(self):
        a = OffsetTable({"p": 10.0}, {"m": 5.0})
        b = OffsetTable({"p": 12.0}, {"m": 5.0})
        assert offsets_max_abs_delta(a, b) == 2.0
        assert offsets_max_abs_delta(a, a.copy()) == 0.0
        assert a.within(b, 2.0) and not a.within(b, 1.9)

    def test_delta_covers_missing_keys(self):
        a = OffsetTable({"p": 10.0}, {})
        b = OffsetTable({}, {})
        assert offsets_max_abs_delta(a, b) == 10.0
        assert not a.within(b, 9.0)


class TestSystemConfiguration:
    def test_copy_deep(self):
        config = two_node_config()
        config.tt_delays["A"] = 5.0
        clone = config.copy()
        clone.tt_delays["A"] = 9.0
        clone.priorities.process_priorities["B"] = 42
        assert config.tt_delays["A"] == 5.0
        assert config.priorities.process_priority("B") == 1

    def test_validate_requires_all_slots(self):
        system = two_node_system()
        config = two_node_config(slot_order=("N1",))
        with pytest.raises(ConfigurationError):
            validate_configuration(system.app, system.arch, config)

    def test_validate_rejects_small_slot(self):
        system = two_node_system()
        config = two_node_config(capacity=4)  # messages are 8 bytes
        with pytest.raises(ConfigurationError):
            validate_configuration(system.app, system.arch, config)

    def test_validate_passes(self):
        system = two_node_system()
        validate_configuration(system.app, system.arch, two_node_config())



def _extra_slot(config):
    config.bus = TTPBusConfig(
        list(config.bus.slots) + [Slot("NX", capacity=8, duration=10.0)]
    )


def _priorities(processes, messages):
    def edit(config):
        config.priorities = PriorityAssignment(processes, messages)
    return edit


def _relay_through_small_slot(config):
    config.routes = {"G0_m10": ("NG3",)}
    config.bus = TTPBusConfig([
        Slot(s.node, 1 if s.node == "NG3" else s.capacity, s.duration)
        for s in config.bus.slots
    ])


def _routed_system():
    return generate_workload(WorkloadSpec(
        clusters=3, gateways=3, nodes=4, processes_per_node=4, seed=0
    ))


#: (system, configuration, edit, the exact error).  Errors become
#: ``RunResult.error``, which is serialized and stored, so the strings
#: are pinned byte for byte.
INVALID = {
    "missing-slot": (
        two_node_system, lambda s: two_node_config(slot_order=("N1",)),
        None,
        "TDMA round must have one slot per TTP controller; "
        "missing=['NG'], unexpected=[]",
    ),
    "extra-slot": (
        two_node_system, lambda s: two_node_config(), _extra_slot,
        "TDMA round must have one slot per TTP controller; "
        "missing=[], unexpected=['NX']",
    ),
    "slot-capacity": (
        two_node_system, lambda s: two_node_config(capacity=4), None,
        "slot of N1 has capacity 4 bytes but must carry a 8-byte message",
    ),
    "duplicate-process-priority": (
        two_node_system, lambda s: two_node_config(),
        _priorities({"B": 1, "X": 1}, {"ma": 1, "mb": 2}),
        "processes X and B share priority 1 on node N2",
    ),
    "duplicate-can-priority": (
        two_node_system, lambda s: two_node_config(),
        _priorities({"B": 1, "X": 2}, {"ma": 1, "mb": 1}),
        "messages ma and mb share CAN priority 1",
    ),
    "missing-process-priority": (
        two_node_system, lambda s: two_node_config(),
        _priorities({"B": 1}, {"ma": 1, "mb": 2}),
        "no priority assigned to process X",
    ),
    "route-relay-capacity": (
        _routed_system, lambda s: conformance_configuration(s, 10),
        _relay_through_small_slot,
        "route of G0_m10 relays through NG3, whose TTP slot (1 B) "
        "cannot carry the 17-byte message",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_validation_error_strings(case):
    make_system, make_config, edit, message = INVALID[case]
    system = make_system()
    config = make_config(system)
    if edit is not None:
        edit(config)
    with pytest.raises(ConfigurationError) as raised:
        validate_configuration(system.app, system.arch, config)
    assert str(raised.value) == message
    # The analysis backend checks through the System's cached rules.
    assert Session(system).evaluate(config).error == message

class TestBusConfigErrors:
    def test_duplicate_slot_owner_rejected(self):
        with pytest.raises(ConfigurationError):
            TTPBusConfig(
                [
                    Slot("N1", capacity=8, duration=5.0),
                    Slot("N1", capacity=8, duration=5.0),
                ]
            )

    def test_empty_round_rejected(self):
        with pytest.raises(ConfigurationError):
            TTPBusConfig([])

    def test_bad_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            Slot("N1", capacity=0, duration=5.0)
        with pytest.raises(ConfigurationError):
            Slot("N1", capacity=8, duration=0.0)
