"""Schedule representation, feasibility validation and quality metrics."""

from repro.schedule.timeline import Slot, Timeline
from repro.schedule.schedule import Schedule, ScheduleColumns, ScheduledTask
from repro.schedule.validation import validate, violations
from repro.schedule.diff import ScheduleDiff, TaskMove, diff_report, diff_schedules
from repro.schedule.io import (
    load_schedule,
    save_schedule,
    save_svg,
    schedule_from_json,
    schedule_to_json,
    schedule_to_svg,
)
from repro.schedule.metrics import (
    efficiency,
    load_balance,
    makespan,
    num_duplicates,
    pairwise_comparison,
    slr,
    speedup,
    total_idle_time,
)

__all__ = [
    "Slot",
    "Timeline",
    "Schedule",
    "ScheduleColumns",
    "ScheduledTask",
    "validate",
    "violations",
    "efficiency",
    "load_balance",
    "makespan",
    "num_duplicates",
    "pairwise_comparison",
    "slr",
    "speedup",
    "total_idle_time",
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
    "schedule_to_svg",
    "save_svg",
    "ScheduleDiff",
    "TaskMove",
    "diff_schedules",
    "diff_report",
]
