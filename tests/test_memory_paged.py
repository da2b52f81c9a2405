"""The paged memory backing against a flat-list reference model.

:class:`FlatMemory` below is the backing :class:`repro.mem.memory.Memory`
had before it was paged: one list element per word, built up front.
Random operation sequences must return the same words, leave the same
contents and raise :class:`MemoryError_` with the same text on both.
"""

import tracemalloc
from typing import List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mem.memory as memory_module
from repro.mem.memory import PAGE_WORDS, ROM, Memory
from repro.sim.errors import MemoryError_
from repro.system import RAM_SIZE, SoC
from repro.utils import bits


class FlatMemory:
    """Reference model: a flat list of every word."""

    def __init__(self, name: str, size_bytes: int, fill: int = 0) -> None:
        if size_bytes <= 0 or size_bytes % 4 != 0:
            raise MemoryError_(f"bad memory size {size_bytes}")
        self.name = name
        self.size_bytes = size_bytes
        self.words = [fill & bits.WORD_MASK] * (size_bytes // 4)

    def _index(self, offset: int) -> int:
        if offset % 4 != 0:
            raise MemoryError_(f"unaligned access at offset {offset:#x}")
        index = offset // 4
        if not 0 <= index < len(self.words):
            raise MemoryError_(
                f"offset {offset:#x} outside {self.name} "
                f"(size {self.size_bytes:#x})"
            )
        return index

    def read_word(self, offset: int) -> int:
        return self.words[self._index(offset)]

    def write_word(self, offset: int, value: int) -> None:
        self.words[self._index(offset)] = value & bits.WORD_MASK

    def read_burst(self, offset: int, count: int) -> List[int]:
        start = self._index(offset)
        if start + count > len(self.words):
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * count}] overruns {self.name}"
            )
        return self.words[start : start + count]

    def write_burst(self, offset: int, values: List[int]) -> None:
        start = self._index(offset)
        if start + len(values) > len(self.words):
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * len(values)}] overruns {self.name}"
            )
        self.words[start : start + len(values)] = [
            v & bits.WORD_MASK for v in values
        ]

    def load_words(self, offset: int, words: Sequence[int]) -> None:
        self.write_burst(offset, list(words))

    def dump_words(self, offset: int, count: int) -> List[int]:
        return list(self.read_burst(offset, count))

    def clear(self) -> None:
        self.words = [0] * len(self.words)


class FlatROM(FlatMemory):
    """Reference ROM: bus writes raise, backdoor loads allowed."""

    def __init__(self, name: str, contents: Sequence[int]) -> None:
        words = [w & bits.WORD_MASK for w in contents]
        super().__init__(name, max(4, 4 * len(words)))
        self.words[: len(words)] = words
        self.locked = True

    def write_word(self, offset: int, value: int) -> None:
        if self.locked:
            raise MemoryError_(f"write to ROM {self.name} at {offset:#x}")
        super().write_word(offset, value)

    def write_burst(self, offset: int, values: List[int]) -> None:
        if self.locked:
            raise MemoryError_(f"burst write to ROM {self.name}")
        super().write_burst(offset, values)

    def load_words(self, offset: int, words: Sequence[int]) -> None:
        self.locked = False
        try:
            super().load_words(offset, words)
        finally:
            self.locked = True


SIZES_WORDS = [1, 5, PAGE_WORDS, PAGE_WORDS + 1, 2 * PAGE_WORDS + 3,
               3 * PAGE_WORDS]
WORD = st.integers(0, bits.WORD_MASK)
# values beyond 32 bits exercise the masking on every write path
VALUE = st.one_of(WORD, st.integers(-(1 << 40), 1 << 40))


def offsets(size_words: int):
    """Byte offsets clustered on page boundaries and both ends of
    memory, plus unaligned and out-of-range ones."""
    edges = {0, size_words - 1, size_words}
    for page in range(1, size_words // PAGE_WORDS + 1):
        edges.update(page * PAGE_WORDS + d for d in (-2, -1, 0, 1))
    near = st.sampled_from(sorted(edges)).map(lambda i: 4 * i)
    anywhere = st.integers(0, size_words - 1).map(lambda i: 4 * i)
    bad = st.one_of(st.integers(-8, 4 * size_words + 8),
                    st.sampled_from([-4, 4 * size_words]))
    return st.one_of(near, near, anywhere, bad)


def operations(size_words: int):
    offset = offsets(size_words)
    count = st.one_of(st.integers(0, 8),
                      st.integers(0, min(size_words, PAGE_WORDS + 8)))
    values = st.one_of(st.lists(VALUE, max_size=8),
                       st.integers(0, PAGE_WORDS + 8).map(
                           lambda n: [(7 * i + n) & 0xFFFF_FFFF
                                      for i in range(n)]))
    return st.one_of(
        st.tuples(st.just("read_word"), offset),
        st.tuples(st.just("write_word"), offset, VALUE),
        st.tuples(st.just("read_burst"), offset, count),
        st.tuples(st.just("write_burst"), offset, values),
        st.tuples(st.just("load_words"), offset, values),
        st.tuples(st.just("dump_words"), offset, count),
        st.tuples(st.just("clear")),
    )


def outcome(target, name: str, *args):
    try:
        return ("ok", getattr(target, name)(*args))
    except MemoryError_ as exc:
        return ("MemoryError_", str(exc))


def replay(paged, flat, ops) -> None:
    for op in ops:
        assert outcome(paged, *op) == outcome(flat, *op), op
    size_words = paged.size_bytes // 4
    assert paged.dump_words(0, size_words) == flat.words


@st.composite
def memory_runs(draw):
    size_words = draw(st.sampled_from(SIZES_WORDS))
    fill = draw(st.one_of(st.just(0), WORD))
    ops = draw(st.lists(operations(size_words), max_size=30))
    return size_words, fill, ops


@settings(max_examples=150, deadline=None)
@given(memory_runs())
def test_paged_memory_matches_flat_reference(run):
    size_words, fill, ops = run
    paged = Memory("m", 4 * size_words, fill=fill)
    flat = FlatMemory("m", 4 * size_words, fill=fill)
    replay(paged, flat, ops)


@st.composite
def rom_runs(draw):
    contents = draw(st.one_of(
        st.lists(VALUE, max_size=12),
        st.sampled_from([PAGE_WORDS + 3, 2 * PAGE_WORDS]).map(
            lambda n: [3 * i for i in range(n)])))
    size_words = max(1, len(contents))
    ops = draw(st.lists(operations(size_words), max_size=20))
    return contents, ops


@settings(max_examples=100, deadline=None)
@given(rom_runs())
def test_rom_lock_matches_flat_reference(run):
    contents, ops = run
    replay(ROM("rom", contents), FlatROM("rom", contents), ops)


def test_bursts_straddling_pages_and_the_ends_of_memory():
    size_words = 2 * PAGE_WORDS + 3
    paged = Memory("m", 4 * size_words, fill=0xA5A5A5A5)
    flat = FlatMemory("m", 4 * size_words, fill=0xA5A5A5A5)
    straddle = 4 * (PAGE_WORDS - 2)
    ops = [
        ("write_burst", straddle, list(range(PAGE_WORDS + 4))),
        ("read_burst", straddle - 8, PAGE_WORDS + 8),
        ("write_word", 0, 1), ("write_word", 4 * (size_words - 1), 2),
        ("read_burst", 0, size_words),
        ("read_burst", 4 * (size_words - 1), 2),
        ("write_burst", 4 * (size_words - 2), [1, 2, 3]),
        ("read_word", 4 * size_words), ("read_word", 6),
        ("clear",), ("read_burst", straddle, 4),
    ]
    replay(paged, flat, ops)


def test_clear_zeroes_a_nonzero_fill_and_written_pages():
    mem = Memory("m", 4 * (PAGE_WORDS + 2), fill=0xFFFFFFFF)
    mem.write_word(4 * PAGE_WORDS, 7)
    mem.clear()
    assert mem.dump_words(0, PAGE_WORDS + 2) == [0] * (PAGE_WORDS + 2)
    mem.write_word(0, 5)
    assert mem.read_burst(0, 2) == [5, 0]


def test_negative_burst_count_reads_nothing():
    # not a Python slice: a negative end index must not wrap around to
    # the top of memory
    mem = Memory("m", 64)
    assert mem.read_burst(8, -1) == []
    assert mem.read_burst(0, -1) == []


def test_word_index_access_matches_the_bus_view():
    mem = Memory("m", 4 * (2 * PAGE_WORDS), fill=9)
    assert mem.load_index(PAGE_WORDS + 1) == 9
    mem.store_index(PAGE_WORDS + 1, 0xDEADBEEF)
    assert mem.read_word(4 * (PAGE_WORDS + 1)) == 0xDEADBEEF
    mem.write_word(8, 3)
    assert mem.load_index(2) == 3


def test_rom_lock_covers_word_index_stores():
    rom = ROM("rom", [1, 2, 3])
    with pytest.raises(MemoryError_, match="write to ROM rom at 0x4"):
        rom.store_index(1, 9)
    assert rom.load_index(1) == 2


def test_default_soc_ram_costs_no_host_memory_until_written():
    """Zero pages are free: a 16 MiB RAM allocates (almost) nothing."""
    tracemalloc.start()
    try:
        soc = SoC()
        ram_filter = [tracemalloc.Filter(True, memory_module.__file__)]
        snapshot = tracemalloc.take_snapshot().filter_traces(ram_filter)
    finally:
        tracemalloc.stop()
    assert soc.memory.size_bytes == RAM_SIZE == 16 << 20
    ram_bytes = sum(stat.size for stat in snapshot.statistics("filename"))
    assert ram_bytes < 1 << 20
