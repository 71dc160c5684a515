"""Test-side switch onto the scalar object scheduling path.

Every production scheduler runs in the compiled executor; the object
path over real :class:`~repro.schedule.schedule.Schedule` objects is
what a custom communication model reaches, and it is the differential
reference the compiled executor is checked against.  :func:`object_path`
reaches it for any instance by making the lowering report "does not
lower", exactly as a custom model does — so schedulers, the GA/SA
decoder and ``compiled_for`` all take their object branches.  The
benchmarks import it the same way they import ``tests.population``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core import (
    DuplicationScheduler,
    ImprovedConfig,
    ImprovedScheduler,
    LookaheadScheduler,
)
from repro.kernels import InstanceKernel
from repro.schedulers.heft import HEFT

#: Every scheduler the compiled executor serves; the HEFT variants
#: cover all four rank aggregations.
ROUTED = ["HEFT", "HEFT-median", "HEFT-best", "HEFT-worst",
          "CPOP", "HCPT", "PETS", "DLS", "HLFET", "MCP", "IMP",
          "LA-HEFT", "DUP-HEFT"]


def routed_insertion_off() -> list:
    """``(label, scheduler)`` for the insertion-off (end-append) variants
    of the routed schedulers that have an insertion switch."""
    out = [("HEFT-noinsert", HEFT(insertion=False)),
           ("IMP-noinsert", ImprovedScheduler(ImprovedConfig(insertion=False)))]
    for cls in (LookaheadScheduler, DuplicationScheduler):
        scheduler = cls()
        scheduler._engine.insertion = False
        out.append((f"{scheduler.name}-noinsert", scheduler))
    return out


@contextmanager
def object_path() -> Iterator[None]:
    """Run everything inside the block on the object path (process-wide)."""
    compiled = InstanceKernel.compiled
    InstanceKernel.compiled = lambda self: None
    try:
        yield
    finally:
        InstanceKernel.compiled = compiled
