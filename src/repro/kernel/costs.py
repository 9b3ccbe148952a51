"""Kernel operation cycle costs and the K-BASE / K-OVERHD split.

The paper's central empirical point is that *software overhead*
(``Toverhead``) dominates hybrid-architecture performance at high memory
pressure, and that prior studies ignored it.  Its execution-time
breakdowns separate:

* **K-BASE** -- essential kernel operations all architectures perform
  (first-touch page faults, normal allocation), and
* **K-OVERHD** -- architecture-specific overhead: relocation interrupts,
  cache flushes, page remapping, pageout-daemon execution, and the
  context switches between the user application and the daemon
  (Section 2.3).

The interrupt and relocation costs are the paper's "highly optimized"
values (Section 5.1 gives 4-digit cycle counts; the exact digits are
unreadable in the source text, so the defaults below are documented
choices of the same magnitude -- see DESIGN.md).  All values are
configuration, not constants, so sensitivity benches can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelCosts"]


@dataclass(frozen=True)
class KernelCosts:
    """Cycle charges for kernel-mediated memory-management operations."""

    #: First-touch page fault service (page table + pmap setup).  K-BASE.
    page_fault: int = 500
    #: Relocation interrupt delivery + handler entry/exit.  K-OVERHD.
    relocation_interrupt: int = 1000
    #: Remapping one page (page-table rewrite, pmap update, DSM engine
    #: notification, TLB shootdown).  Applied on every CC-NUMA<->S-COMA
    #: transition and on S-COMA eviction.  K-OVERHD.
    page_remap: int = 4000
    #: Flushing one valid line from the processor cache.  K-OVERHD.
    flush_per_line: int = 10
    #: Context switch between user application and pageout daemon --
    #: charged twice per daemon run (in and out).  K-OVERHD.
    context_switch: int = 500
    #: Pageout daemon per-page scan work (second-chance check).  K-OVERHD.
    daemon_scan_per_page: int = 20
    #: Fixed daemon dispatch overhead per run.  K-OVERHD.
    daemon_dispatch: int = 200
    #: Copying one DSM chunk across the network during a home
    #: *migration* (extension feature, see repro.core.migration).
    migration_copy_per_chunk: int = 60

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"kernel cost {name!r} must be non-negative")

    def daemon_run_cost(self, pages_scanned: int) -> int:
        """Total K-OVERHD cycles of one pageout-daemon invocation."""
        return (2 * self.context_switch + self.daemon_dispatch
                + self.daemon_scan_per_page * pages_scanned)

    def flush_cost(self, lines_flushed: int) -> int:
        return self.flush_per_line * lines_flushed

    def relocation_cost(self, lines_flushed: int) -> int:
        """Upgrade of one page from CC-NUMA to S-COMA mode."""
        return (self.relocation_interrupt + self.page_remap
                + self.flush_cost(lines_flushed))

    def eviction_cost(self, lines_flushed: int) -> int:
        """Downgrade / eviction of one S-COMA page."""
        return self.page_remap + self.flush_cost(lines_flushed)

    def migration_cost(self, chunks_per_page: int, lines_flushed: int) -> int:
        """Moving a page's home: interrupt + page copy + remap.

        The 4 KiB copy across the network dominates; the page-table
        rewrites at both ends are folded into one remap charge.
        """
        return (self.relocation_interrupt
                + chunks_per_page * self.migration_copy_per_chunk
                + self.page_remap
                + self.flush_cost(lines_flushed))
