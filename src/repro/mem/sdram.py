"""SDRAM with an open-row latency model.

The Nexys4 board of the paper carries cellular RAM/SRAM (flat
latency); many Ouessant targets (and the future-work Zynq, whose DDR
sits behind the HP port) do not.  :class:`SDRAM` extends the flat
:class:`~repro.mem.memory.Memory` with the first-order DRAM effect:
a burst landing in the currently open row of its bank pays the CAS
latency only, while a row miss adds precharge + activate.

The bus consults :meth:`latency_for` at grant time (address-aware
slaves are a small extension of the BusSlave contract), so burst
*sequences* see realistic behaviour: Ouessant's long sequential DMA
bursts are row-friendly, a PIO driver's scattered word accesses are
not -- one more reason the integrated DMA wins.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.errors import ConfigurationError
from ..sim.tracing import Stats
from ..utils import bits
from .memory import Memory


class SDRAM(Memory):
    """Open-row DRAM latency on top of the paged word array.

    Parameters
    ----------
    row_bytes:
        Row (page) size per internal bank; power of two.
    n_banks:
        Internal DRAM banks, each remembering its own open row.
    cas_latency:
        First-beat latency on a row hit.
    row_miss_penalty:
        Extra cycles (precharge + activate) on a row miss.
    """

    def __init__(
        self,
        name: str = "sdram",
        size_bytes: int = 1 << 20,
        row_bytes: int = 2048,
        n_banks: int = 4,
        cas_latency: int = 3,
        row_miss_penalty: int = 9,
    ) -> None:
        super().__init__(name, size_bytes, access_latency=cas_latency)
        if not bits.is_power_of_two(row_bytes) or row_bytes < 64:
            raise ConfigurationError(f"bad row size {row_bytes}")
        if not bits.is_power_of_two(n_banks):
            raise ConfigurationError(f"bank count {n_banks} not a power of two")
        self.row_bytes = row_bytes
        self.n_banks = n_banks
        self.cas_latency = cas_latency
        self.row_miss_penalty = row_miss_penalty
        self._open_rows: List[Optional[int]] = [None] * n_banks
        self.dram_stats = Stats()

    def _split(self, offset: int) -> "tuple[int, int]":
        row = offset // self.row_bytes
        bank = row & (self.n_banks - 1)
        return bank, row

    def latency_for(self, offset: int, burst: int) -> int:
        """First-beat latency of a burst starting at ``offset``.

        Consulted by the bus at grant time; updates the open-row state
        (the burst leaves its final row open).  A burst crossing into
        a new row charges one extra miss penalty (simplification: at
        most one boundary crossing is charged; Ouessant's 16..128-word
        bursts cross at most one 2 KB row).
        """
        bank, row = self._split(offset)
        latency = self.cas_latency
        if self._open_rows[bank] == row:
            self.dram_stats.incr("row_hits")
        else:
            self.dram_stats.incr("row_misses")
            latency += self.row_miss_penalty
        self._open_rows[bank] = row
        end_bank, end_row = self._split(offset + 4 * burst - 4)
        if (end_bank, end_row) != (bank, row):
            # rows interleave across banks, so a boundary crossing
            # activates the next bank's row
            if self._open_rows[end_bank] != end_row:
                self.dram_stats.incr("row_misses")
                latency += self.row_miss_penalty
            self._open_rows[end_bank] = end_row
        return latency

    @property
    def row_hit_rate(self) -> float:
        hits = self.dram_stats.get("row_hits")
        total = hits + self.dram_stats.get("row_misses")
        return hits / total if total else 0.0

    def precharge_all(self) -> None:
        """Close every row (refresh / power-state model hook)."""
        self._open_rows = [None] * self.n_banks
