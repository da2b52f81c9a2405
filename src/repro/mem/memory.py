"""Word-addressed memory models.

:class:`Memory` is the SRAM of the paper's Nexys4 board (16 MB, one wait
state) as seen from the bus: an array of 32-bit words with a
configurable first-access latency.  Sequential beats of a burst stream
at bus speed, which is what makes Ouessant's burst DMA efficient.

The array is paged: a dict maps page numbers to lists of
:data:`PAGE_WORDS` words, and a page is allocated on its first write.
Reads of a page never written return the fill value without allocating
it, so a 16 MB SoC costs host memory only for the pages its run
touches.  A burst costs one list slice per page it crosses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..sim.errors import MemoryError_
from ..utils import bits
from ..bus.types import BusSlave

#: words per backing page (4 KiB of simulated memory)
PAGE_SHIFT = 10
PAGE_WORDS = 1 << PAGE_SHIFT
_OFFSET_MASK = PAGE_WORDS - 1


class Memory(BusSlave):
    """32-bit word memory with configurable access latency.

    Parameters
    ----------
    size_bytes:
        Capacity; must be a multiple of 4.
    access_latency:
        Wait states inserted on the first beat of a bus burst.
    fill:
        Initial word value (default 0).
    """

    def __init__(
        self,
        name: str = "sram",
        size_bytes: int = 1 << 20,
        access_latency: int = 1,
        fill: int = 0,
    ) -> None:
        if size_bytes <= 0 or size_bytes % 4 != 0:
            raise MemoryError_(f"bad memory size {size_bytes}")
        self.name = name
        self.size_bytes = size_bytes
        self.size_words = size_bytes // 4
        self.access_latency = access_latency
        self._fill = fill & bits.WORD_MASK
        self._pages: Dict[int, List[int]] = {}

    # -- helpers --------------------------------------------------------
    def _index(self, offset: int) -> int:
        if offset % 4 != 0:
            raise MemoryError_(f"unaligned access at offset {offset:#x}")
        index = offset // 4
        if not 0 <= index < self.size_words:
            raise MemoryError_(
                f"offset {offset:#x} outside {self.name} "
                f"(size {self.size_bytes:#x})"
            )
        return index

    def _page(self, number: int) -> List[int]:
        """The page ``number``, allocated (filled) on first use."""
        page = self._pages.get(number)
        if page is None:
            length = min(PAGE_WORDS, self.size_words - (number << PAGE_SHIFT))
            page = self._pages[number] = [self._fill] * length
        return page

    # -- word-index access (the ISS fast path) ---------------------------
    def load_index(self, index: int) -> int:
        """Word at word index ``index``; the caller checked the bounds."""
        page = self._pages.get(index >> PAGE_SHIFT)
        return self._fill if page is None else page[index & _OFFSET_MASK]

    def store_index(self, index: int, value: int) -> None:
        """Store a 32-bit ``value`` at word index ``index``; the caller
        checked the bounds and masked the value."""
        self._page(index >> PAGE_SHIFT)[index & _OFFSET_MASK] = value

    # -- BusSlave interface ------------------------------------------------
    def read_word(self, offset: int) -> int:
        return self.load_index(self._index(offset))

    def write_word(self, offset: int, value: int) -> None:
        self.store_index(self._index(offset), value & bits.WORD_MASK)

    def read_burst(self, offset: int, count: int) -> List[int]:
        start = self._index(offset)
        end = start + count
        if end > self.size_words:
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * count}] overruns {self.name}"
            )
        if count <= 0:
            return []
        first = start & _OFFSET_MASK
        if first + count <= PAGE_WORDS:  # inside one page: one slice
            page = self._pages.get(start >> PAGE_SHIFT)
            if page is None:
                return [self._fill] * count
            return page[first : first + count]
        words: List[int] = []
        while start < end:
            number = start >> PAGE_SHIFT
            stop = min(end, (number + 1) << PAGE_SHIFT)
            page = self._pages.get(number)
            if page is None:
                words += [self._fill] * (stop - start)
            else:
                first = start & _OFFSET_MASK
                words += page[first : first + stop - start]
            start = stop
        return words

    def write_burst(self, offset: int, values: List[int]) -> None:
        start = self._index(offset)
        count = len(values)
        if start + count > self.size_words:
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * count}] overruns {self.name}"
            )
        masked = [v & bits.WORD_MASK for v in values]
        first = start & _OFFSET_MASK
        if first + count <= PAGE_WORDS:  # inside one page: one slice
            self._page(start >> PAGE_SHIFT)[first : first + count] = masked
            return
        done = 0
        while done < count:
            first = (start + done) & _OFFSET_MASK
            n = min(count - done, PAGE_WORDS - first)
            self._page((start + done) >> PAGE_SHIFT)[first : first + n] = (
                masked[done : done + n]
            )
            done += n

    # -- loader convenience ---------------------------------------------
    def load_words(self, offset: int, words: Sequence[int]) -> None:
        """Backdoor bulk initialization (no cycles)."""
        self.write_burst(offset, list(words))

    def dump_words(self, offset: int, count: int) -> List[int]:
        """Backdoor bulk readout (no cycles)."""
        return self.read_burst(offset, count)

    def load_bytes(self, offset: int, data: bytes) -> None:
        self.load_words(offset, bits.words_from_bytes(data))

    def clear(self) -> None:
        """Zero every word (including a non-zero initial fill)."""
        self._fill = 0
        self._pages = {}


class ROM(Memory):
    """Read-only memory: bus writes raise, backdoor loads allowed."""

    def __init__(
        self,
        name: str = "rom",
        contents: Iterable[int] = (),
        access_latency: int = 1,
    ) -> None:
        words = [w & bits.WORD_MASK for w in contents]
        size = max(4, 4 * len(words))
        super().__init__(name, size, access_latency)
        if words:
            self.load_words(0, words)
        self._locked = True

    def write_word(self, offset: int, value: int) -> None:
        if getattr(self, "_locked", False):
            raise MemoryError_(f"write to ROM {self.name} at {offset:#x}")
        super().write_word(offset, value)

    def write_burst(self, offset: int, values: List[int]) -> None:
        if getattr(self, "_locked", False):
            raise MemoryError_(f"burst write to ROM {self.name}")
        super().write_burst(offset, values)

    def store_index(self, index: int, value: int) -> None:
        if getattr(self, "_locked", False):
            raise MemoryError_(
                f"write to ROM {self.name} at {4 * index:#x}"
            )
        super().store_index(index, value)

    def load_words(self, offset: int, words: Sequence[int]) -> None:
        self._locked = False
        try:
            super().load_words(offset, words)
        finally:
            self._locked = True
