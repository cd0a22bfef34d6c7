"""Static scheduling of the time-triggered cluster (schedule tables, MEDL)."""

from .asap_alap import alap_starts, slack_of_message, slack_of_process
from .list_scheduler import static_schedule
from .schedule_table import FrameSlot, ScheduleEntry, StaticSchedule

__all__ = [
    "FrameSlot",
    "ScheduleEntry",
    "StaticSchedule",
    "alap_starts",
    "slack_of_message",
    "slack_of_process",
    "static_schedule",
]
