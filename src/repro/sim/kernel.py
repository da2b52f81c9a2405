"""Cycle-driven simulation kernel.

The whole reproduction is built on a deliberately simple execution model:
a :class:`Simulator` owns a set of :class:`Component` objects and advances
a global clock one cycle at a time.  On every cycle each component's
:meth:`Component.tick` is called once, in registration order, followed by
:meth:`Component.commit` in the same order.

The two-phase scheme gives registered (flip-flop like) semantics where it
matters: a component computes its next state in ``tick`` using only the
*current* outputs of other components, then publishes it in ``commit``.
Components that do not need the distinction can do all their work in
``tick`` and ignore ``commit``.

This is not an event-driven HDL simulator -- it is the standard
cycle-approximate style used by architecture simulators, which is the
right fidelity level for reproducing the paper's cycle counts (bus beats,
FIFO occupancy, controller FSM states) without modelling individual
wires.

Dispatch
--------

Long waits dominate many workloads (a DFT's ``exec_wait``, SDRAM
latency, driver backoff windows), and on transfer-heavy ones a single
component is live while the rest are stalled.  Components therefore
declare *quiescence* through :meth:`Component.next_activity`: "my
``tick``/``commit`` are observable no-ops until cycle N (or until
another component acts)".  The kernel caches each answer and only
invalidates it when the component itself acts or another component
*pokes* it (:meth:`Component.poke`, FIFO/IRQ/bus wake wiring).  Every
iteration of :meth:`Simulator.step` / :meth:`Simulator.run_until`
scans the cached claims once and then either fast-forwards a window in
which nothing is due, grants the due components a batch of ticks, or
executes one cycle touching only the due components.  Batch grants run
in *hot mode* (no trace, :meth:`Component.tick_batch`): a sole due
batcher takes as many cycles as it can, and several due batchers whose
FIFO ports are pairwise disjoint (RACs streaming on different OCPs)
advance in *lockstep*, all by the same number of cycles -- the
smallest :meth:`Component.batch_limit` among them, within the horizon
every sleeping component's wake sets.  Per-cycle skip reconciliation
is deferred: a quiescent component's :meth:`Component.on_skip` runs
lazily, just before its next real tick (or at the public
``step``/``run_until`` boundary), covering exactly the cycles it sat
out.

Fault injectors and waveform probes run on the same path: they declare
their own wakes and watch (or poke) the components whose state they
read or perturb.  The naive two-phase stepper is kept as the oracle
(``idle_skip=False``, and ``profile_time=True``); the equivalence suite
in ``tests/test_idle_skip.py`` gates the dispatch path against it on
clean and fault-injected seeds, and ``strict=True`` re-executes every
window the scan would skip through the naive stepper, asserting that
the quiescence claims held.  The protocol and its correctness rules
are documented in ``docs/SIMULATION.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import DeadlockError, SimulationError
from .tracing import Trace


class Component:
    """Base class for everything that lives on the simulated clock.

    Subclasses override :meth:`tick` (compute phase) and optionally
    :meth:`commit` (publish phase) and :meth:`reset`.  Components that
    can stall override :meth:`next_activity` (and, when they keep
    per-cycle counters, :meth:`on_skip`) to take part in idle skipping.
    """

    #: True on components implementing :meth:`tick_batch`
    can_batch = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None
        self._detached = False
        #: components whose quiescence claim depends on this one's
        #: state; poked (wake-cache invalidated) whenever it changes
        self._watchers: List["Component"] = []
        # dispatch bookkeeping (owned by the Simulator):
        # cached next_activity() answer, its validity, the first cycle
        # whose tick/on_skip has not been accounted yet, and the cycle
        # of the last real tick (commit-phase membership marker)
        self._wake: Optional[int] = None
        self._wake_valid = False
        self._synced = 0
        self._ran_at = -1

    # -- lifecycle -----------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Called by the simulator when the component is registered."""
        self.sim = sim
        self._detached = False

    def detach(self) -> None:
        """Called by the simulator when the component is removed."""
        self.sim = None
        self._detached = True

    def reset(self) -> None:
        """Return the component to its power-on state."""

    # -- per-cycle hooks ----------------------------------------------
    def tick(self) -> None:
        """Compute phase: runs once per cycle before any commit."""

    def commit(self) -> None:
        """Publish phase: runs once per cycle after every tick."""

    # -- quiescence protocol ------------------------------------------
    def next_activity(self) -> Optional[int]:
        """Earliest future cycle at which this component must tick.

        Return values (see ``docs/SIMULATION.md`` for the full
        contract):

        * any cycle ``<= self.now`` -- *active*: the component needs
          its tick this cycle; no skipping may happen.
        * a cycle ``N > self.now`` -- quiescent until ``N``: every
          tick/commit strictly before ``N`` is an observable no-op
          (no trace events, no cross-component effects) provided no
          *other* component acts either.
        * ``None`` -- indefinitely idle: only an external poke (another
          component's activity, a register write between steps) can
          make its ticks matter again.

        The base implementation returns ``self.now`` (always active),
        which is the safe default for components the kernel knows
        nothing about.
        """
        return self.now

    def on_skip(self, cycles: int) -> None:
        """Reconcile internal per-cycle counters after a skipped gap.

        Called with the number of fast-forwarded cycles whenever the
        simulator jumps over a window this component declared idle.
        Implementations must apply exactly the state changes ``cycles``
        consecutive no-op ticks would have applied (stat counters,
        wait-timer decrements) -- nothing observable.
        """

    def tick_batch(self, budget: int) -> int:
        """Execute up to ``budget`` consecutive ticks in one host call.

        Hot-mode hook (``can_batch = True``): called only when tracing
        is off, no sleeping component wakes for at least ``budget``
        cycles, and every other component due this cycle is a batcher
        whose :meth:`batch_ports` are disjoint from this one's (it is
        granted the same cycles in lockstep).  The implementation must
        be cycle-for-cycle equivalent to that many naive ticks and must
        return early (the count actually consumed) at any tick whose
        effects could wake another component -- poking it so the
        kernel re-polls at the exact naive cycle.  With
        ``budget <= batch_limit(...)`` it must consume exactly
        ``budget``.  Returning 0 declines the grant without touching
        any state; the kernel then runs an ordinary cycle (with its
        commit phase).
        """
        return 0

    def batch_limit(self, budget: int) -> int:
        """Cycles :meth:`tick_batch` would consume of ``budget``.

        Side-effect free; 0 means the grant would be declined.  The
        lockstep lane grants every due batcher the smallest limit.
        """
        return 0

    def batch_ports(self) -> Tuple["Component", ...]:
        """The components (FIFOs) a batch reads or writes.

        Lockstep batchers must have pairwise disjoint ports: then no
        batcher reads state another one writes during the grant.
        """
        return ()

    # -- dispatch helpers ----------------------------------------------
    def poke(self) -> None:
        """Invalidate this component's cached quiescence claim.

        Any code that changes state a *quiescent* component's
        ``next_activity`` answer depends on must poke it, or the
        dispatch table would trust a stale claim.
        """
        self._wake_valid = False

    def watch(self, component: "Component") -> None:
        """Register ``component`` to be poked by :meth:`wake_watchers`."""
        if component not in self._watchers:
            self._watchers.append(component)

    def wake_watchers(self) -> None:
        """Poke this component and everything watching it."""
        self._wake_valid = False
        for watcher in self._watchers:
            watcher._wake_valid = False

    def sync_skips(self) -> None:
        """Apply any deferred ``on_skip`` reconciliation *now*.

        Used before externally-driven state mutation (a CTRL register
        write flipping the controller's FSM): pending quiescent cycles
        must be charged to the *old* state before it changes.  Also
        invalidates the wake cache.  No-op under the naive stepper.
        """
        sim = self.sim
        if sim is not None and sim._dispatching:
            pending = sim.cycle - self._synced
            if pending > 0:
                self.on_skip(pending)
                self._synced = sim.cycle
        self._wake_valid = False

    # -- helpers -------------------------------------------------------
    @property
    def now(self) -> int:
        """Current cycle number (0 before the first attach).

        Raises :class:`SimulationError` on a component that was removed
        from its simulator: a detached component has no clock, and
        silently timestamping events or stats at cycle 0 hides
        use-after-remove bugs (the partial-reconfiguration path swaps
        whole FIFO fabrics out of the system).
        """
        if self.sim is None:
            if self._detached:
                raise SimulationError(
                    f"component {self.name!r} was removed from its "
                    "simulator; 'now' is undefined after detach"
                )
            return 0
        return self.sim.cycle

    def trace_event(self, event: str, **data: object) -> None:
        """Record an event in the simulator trace, if tracing is on."""
        if self.sim is not None:
            # remembered even without a trace: names the most recently
            # active component in deadlock diagnostics
            self.sim.last_active = self.name
            if self.sim.trace is not None:
                self.sim.trace.record(self.sim.cycle, self.name, event, data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class ComponentProfile:
    """Per-component slice of :meth:`Simulator.profile`."""

    name: str
    ticks: int = 0
    time_s: float = 0.0


@dataclass
class SimProfile:
    """Cycle accounting of one :class:`Simulator`'s execution.

    ``ticked`` counts executed cycles (naive, dispatched or batched),
    ``skipped`` counts cycles fast-forwarded over declared idle
    windows; the two always sum to ``cycles``.  ``batched`` is the
    share of ``ticked`` consumed by hot-mode batch grants,
    ``batch_grants`` counts those grants and ``lockstep_grants`` the
    ones shared by several due batchers.  ``components`` is
    populated with per-component tick counts and host-time attribution
    when the simulator was built with ``profile_time=True`` (which
    times the naive stepper: two clock reads per component per cycle,
    so it is off by default).
    """

    cycles: int
    ticked: int
    skipped: int
    skip_windows: int
    batched: int = 0
    batch_grants: int = 0
    lockstep_grants: int = 0
    components: Dict[str, ComponentProfile] = field(default_factory=dict)

    @property
    def skip_ratio(self) -> float:
        """Fraction of simulated cycles that were fast-forwarded."""
        return self.skipped / self.cycles if self.cycles else 0.0

    def render(self) -> str:
        lines = [
            f"cycles          {self.cycles:>10}",
            f"  ticked        {self.ticked:>10}",
            f"  skipped       {self.skipped:>10} "
            f"({100 * self.skip_ratio:.1f}% in {self.skip_windows} windows)",
            f"  batched       {self.batched:>10} "
            f"(in {self.batch_grants} grants, "
            f"{self.lockstep_grants} lockstep)",
        ]
        if self.components:
            total = sum(p.time_s for p in self.components.values())
            lines.append("host time attribution:")
            ranked = sorted(
                self.components.values(), key=lambda p: -p.time_s
            )
            for prof in ranked:
                share = prof.time_s / total if total else 0.0
                lines.append(
                    f"  {prof.name:<20} {prof.ticks:>10} ticks "
                    f"{1e3 * prof.time_s:>9.2f} ms ({100 * share:.1f}%)"
                )
        return "\n".join(lines)


class Simulator:
    """Owns the clock and the component list.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.tracing.Trace` collecting events.
        Without one the dispatch path runs *hot*: due components with
        disjoint FIFO ports may batch runs of consecutive ticks.
    idle_skip:
        Run the dispatch path (default True): quiescent components are
        not dispatched and windows in which nothing is due are
        fast-forwarded.  With it off the kernel is the plain two-phase
        stepper, the oracle every other schedule must match
        bit-for-bit.
    strict:
        Paranoia mode: every window the dispatch scan would skip is
        executed through the naive stepper instead, asserting that no
        component emitted a trace event or woke earlier than declared;
        the hot batch lane stays off.  Used by the equivalence tests.
    profile_time:
        Attribute host wall-clock time to individual components (see
        :meth:`profile`).  Times the naive stepper (every component,
        every cycle); off by default.
    """

    #: predicate re-check granularity inside a declared-idle window --
    #: bounds how far ``run_until`` trusts quiescence between predicate
    #: evaluations (predicates must be component-state functions, but a
    #: bounded chunk keeps even a misused clock-reading predicate from
    #: overshooting by more than one chunk)
    max_skip_chunk = 1 << 14

    def __init__(
        self,
        trace: Optional[Trace] = None,
        idle_skip: bool = True,
        strict: bool = False,
        profile_time: bool = False,
    ) -> None:
        self.cycle = 0
        self.trace = trace
        self.idle_skip = idle_skip and not profile_time
        self.strict = strict
        self.profile_time = profile_time
        #: True while inside a dispatch step/run_until epoch (skip
        #: reconciliation is deferred per component during this time)
        self._dispatching = False
        #: name of the component that most recently emitted an event
        self.last_active: Optional[str] = None
        self._components: List[Component] = []
        self._names = set()
        # accounting for profile()
        self._ticked = 0
        self._skipped = 0
        self._skip_windows = 0
        self._batched = 0
        self._batch_grants = 0
        self._lockstep_grants = 0
        self._profiles: Dict[str, ComponentProfile] = {}

    # -- registration ----------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        if component.name in self._names:
            raise SimulationError(
                f"duplicate component name {component.name!r}"
            )
        self._names.add(component.name)
        self._components.append(component)
        component.attach(self)
        return component

    def add_all(self, components: Iterable[Component]) -> None:
        for component in components:
            self.add(component)

    def remove(self, component: Component) -> None:
        """Unregister a component (used by partial reconfiguration).

        Raises
        ------
        SimulationError
            If the component is not registered with this simulator.
        """
        if component not in self._components:
            raise SimulationError(
                f"cannot remove {component.name!r}: not registered "
                "with this simulator"
            )
        self._components.remove(component)
        self._names.discard(component.name)
        if self.last_active == component.name:
            # never let DeadlockError diagnostics name a component
            # that is no longer in the system
            self.last_active = None
        component.detach()

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    def component(self, name: str) -> Component:
        for comp in self._components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    # -- execution ---------------------------------------------------------
    def reset(self) -> None:
        """Reset the clock, the profile counters and every component."""
        self.cycle = 0
        self._ticked = 0
        self._skipped = 0
        self._skip_windows = 0
        self._batched = 0
        self._batch_grants = 0
        self._lockstep_grants = 0
        self._profiles = {}
        for comp in self._components:
            comp.reset()

    def _tick_all(self) -> None:
        """One naive two-phase cycle."""
        if self.profile_time:
            profiles = self._profiles
            for comp in self._components:
                prof = profiles.get(comp.name)
                if prof is None:
                    prof = profiles[comp.name] = ComponentProfile(comp.name)
                begin = perf_counter()
                comp.tick()
                prof.time_s += perf_counter() - begin
                prof.ticks += 1
            for comp in self._components:
                begin = perf_counter()
                comp.commit()
                profiles[comp.name].time_s += perf_counter() - begin
        else:
            for comp in self._components:
                comp.tick()
            for comp in self._components:
                comp.commit()
        self.cycle += 1
        self._ticked += 1

    def _skip_checked(self, cycles: int) -> None:
        """Strict mode: tick naively through a window the scan would
        skip and assert that the quiescence claims held (no events, no
        early wake-ups).

        Deferred ``on_skip`` is settled first -- the naive ticks own
        the window -- and every cycle re-opens the epoch so each claim
        is polled with exact accounting.
        """
        self._dispatch_end()
        events_before = len(self.trace) if self.trace is not None else None
        last_before = self.last_active
        for offset in range(cycles):
            self._dispatch_begin()
            now = self.cycle
            for comp in self._components:
                wake = self._poll(comp, now)
                if wake is not None and wake <= now:
                    raise SimulationError(
                        f"strict audit: component {comp.name!r} "
                        f"turned active at cycle {now}, {offset} cycles "
                        f"into a {cycles}-cycle declared-idle window"
                    )
            self._tick_all()
        self._dispatch_begin()
        if events_before is not None and len(self.trace) != events_before:
            culprit = self.trace.dump().splitlines()[events_before]
            raise SimulationError(
                "strict audit: trace events emitted during a "
                f"declared-idle window (first: {culprit!r})"
            )
        if self.last_active != last_before:
            raise SimulationError(
                f"strict audit: component {self.last_active!r} was "
                "active during a declared-idle window"
            )

    # -- dispatch ----------------------------------------------------------
    @property
    def hot(self) -> bool:
        """True when the dispatch path runs trace-free (batch lane on).

        Hot runs keep every counter and final state bit-exact but
        record no trace events, so span reconstruction is impossible
        for them (``repro.obs`` refuses loudly).
        """
        return self.trace is None and self.idle_skip and not self.strict

    def _dispatch_begin(self) -> None:
        """Open a dispatch epoch at a public ``step``/``run_until``.

        Anything may have mutated component state between public calls
        (register backdoors, FIFO drains in test harnesses), so every
        cached wake is dropped; deferred-skip accounting starts from
        the current cycle because all prior cycles are fully settled.
        """
        self._dispatching = True
        now = self.cycle
        for comp in self._components:
            comp._wake_valid = False
            comp._synced = now

    def _dispatch_end(self) -> None:
        """Close the epoch: flush every deferred ``on_skip``.

        After this, stats and timers are exactly what the naive
        schedule would show at this cycle -- callers may inspect any
        component state.
        """
        now = self.cycle
        for comp in self._components:
            pending = now - comp._synced
            if pending > 0:
                comp.on_skip(pending)
                comp._synced = now
        self._dispatching = False

    def _poll(self, comp: Component, now: int) -> Optional[int]:
        """Re-poll a component's quiescence claim with settled accounting.

        ``next_activity`` implementations read self-timed counters
        (``wait`` timers, watchdogs) that deferred-skip accounting
        leaves stale; flushing the pending ``on_skip`` first makes the
        claim exactly what the naive schedule would compute at ``now``.
        """
        pending = now - comp._synced
        if pending > 0:
            comp.on_skip(pending)
            comp._synced = now
        comp._wake = wake = comp.next_activity()
        comp._wake_valid = True
        return wake

    def _dispatch_scan(
        self, bound: int, hot: bool
    ) -> Tuple[List[Component], int, bool]:
        """One pass over the cached quiescence claims.

        Returns ``(due, horizon, batchable)``: the components due this
        cycle in registration order, the earliest strictly-future wake
        clamped to ``bound``, and whether the run is ``hot`` and every
        due component can batch.  The scan stops as soon as two
        components are due and one of them cannot batch -- a full cycle
        has to run then and the horizon is irrelevant (later components
        keep their caches and are re-polled by :meth:`_dispatch_cycle`
        where needed).
        """
        now = self.cycle
        due: List[Component] = []
        batchable = hot
        horizon = bound
        for comp in self._components:
            if comp._wake_valid:
                wake = comp._wake
            else:  # inlined _poll: this loop runs before every event
                pending = now - comp._synced
                if pending > 0:
                    comp.on_skip(pending)
                    comp._synced = now
                comp._wake = wake = comp.next_activity()
                comp._wake_valid = True
            if wake is None:
                continue
            if wake <= now:
                due.append(comp)
                if not comp.can_batch:
                    batchable = False
                if not batchable and len(due) > 1:
                    break
            elif wake < horizon:
                horizon = wake
        return due, horizon, batchable

    def _dispatch_skip(self, cycles: int) -> None:
        """Fast-forward a quiescent window; ``on_skip`` stays deferred."""
        self.cycle += cycles
        self._skipped += cycles
        self._skip_windows += 1

    def _dispatch_cycle(self) -> None:
        """Execute one cycle touching only the components that are due.

        Visibility matches the naive schedule exactly: the single tick
        pass runs in registration order, re-polling each component when
        the pass reaches it -- so a *forward* poke (an earlier
        component waking a later one) lands the same cycle, while a
        *backward* poke takes effect next cycle, which is precisely
        when the naive two-phase schedule would surface it.  The commit
        sweep again walks registration order so same-cycle trace events
        keep their naive order, and picks up components whose commit
        phase can still observe a backward poke (a FIFO staged into by
        a later producer).
        """
        now = self.cycle
        components = self._components
        for comp in components:
            if comp._wake_valid:
                wake = comp._wake
            else:  # inlined _poll (hot loop)
                pending = now - comp._synced
                if pending > 0:
                    comp.on_skip(pending)
                    comp._synced = now
                comp._wake = wake = comp.next_activity()
                comp._wake_valid = True
            if wake is None or wake > now:
                continue
            pending = now - comp._synced
            if pending > 0:
                comp.on_skip(pending)
            comp._synced = now + 1
            comp._ran_at = now
            comp.tick()
            comp._wake_valid = False
        for comp in components:
            if comp._ran_at == now:
                comp.commit()
            elif not comp._wake_valid:
                wake = self._poll(comp, now)
                if wake is not None and wake <= now:
                    comp.commit()
                    comp._wake_valid = False
        self.cycle = now + 1
        self._ticked += 1

    def _dispatch_batch(self, sole: Component, horizon: int) -> None:
        """Run the hot-mode batch lane for a sole due component.

        Preconditions established by the caller from a
        :meth:`_dispatch_scan`: tracing off, exactly one component due
        this cycle, that component opts in via ``can_batch``, and every
        other component either sleeps past ``horizon`` or is poke-wired
        (indefinitely idle).  The batch itself is additionally bounded
        inside ``tick_batch`` by FIFO stall-watch thresholds so stalled
        consumers wake on the exact naive cycle.
        """
        now = self.cycle
        pending = now - sole._synced
        if pending > 0:
            sole.on_skip(pending)
            sole._synced = now
        consumed = sole.tick_batch(horizon - now)
        if consumed < 1:  # declined: an ordinary cycle, commit included
            self._dispatch_cycle()
            return
        sole._synced = now + consumed
        sole._wake_valid = False
        self.cycle = now + consumed
        self._ticked += consumed
        self._batched += consumed
        self._batch_grants += 1

    def _dispatch_lockstep(
        self, due: List[Component], horizon: int
    ) -> None:
        """Grant several due batchers the same cycles in one host step.

        Preconditions as for :meth:`_dispatch_batch`, except that two
        or more components are due, all of them batchers.  Their
        :meth:`Component.batch_ports` must be pairwise disjoint, so no
        batcher reads state another one writes; each one's limit is
        already bounded by its own FIFO stall-watch crossings, and the
        pokes of a last tick land at ``now + grant``, exactly where the
        naive schedule surfaces them.  Shared ports or any declining
        batcher run an ordinary cycle instead.
        """
        now = self.cycle
        grant = horizon - now
        ports = set()
        for comp in due:
            for port in comp.batch_ports():
                if port in ports:
                    self._dispatch_cycle()
                    return
                ports.add(port)
            pending = now - comp._synced
            if pending > 0:
                comp.on_skip(pending)
                comp._synced = now
            limit = comp.batch_limit(grant)
            if limit < 1:
                self._dispatch_cycle()
                return
            if limit < grant:
                grant = limit
        for comp in due:
            consumed = comp.tick_batch(grant)
            if consumed != grant:
                raise SimulationError(
                    f"lockstep batch: component {comp.name!r} consumed "
                    f"{consumed} of the {grant} cycles its batch_limit "
                    f"allowed at cycle {now}"
                )
            comp._synced = now + grant
            comp._wake_valid = False
        self.cycle = now + grant
        self._ticked += grant
        self._batched += grant
        self._batch_grants += 1
        self._lockstep_grants += 1

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` cycles."""
        target = self.cycle + cycles
        self._run(lambda: self.cycle >= target, target)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
        what: str = "condition",
    ) -> int:
        """Step until ``predicate()`` is true; return elapsed cycles.

        The predicate must be a function of component state (not of the
        raw clock): during a declared-idle window no component state
        changes, so the kernel re-evaluates it only at wake-ups and
        every :attr:`max_skip_chunk` cycles.

        Raises
        ------
        DeadlockError
            If the predicate is still false after ``max_cycles`` steps.
        """
        start = self.cycle
        deadline = start + max_cycles

        def done() -> bool:
            if predicate():
                return True
            if self.cycle >= deadline:
                self._raise_deadlock(max_cycles, what)
            return False

        self._run(done, deadline, self.max_skip_chunk)
        return self.cycle - start

    def _run(
        self,
        done: Callable[[], bool],
        limit: int,
        chunk: Optional[int] = None,
    ) -> None:
        """The one loop behind ``step`` and ``run_until``.

        Runs until ``done()``; no skip or batch crosses ``limit`` (nor,
        when given, ``chunk`` cycles past the current one).  Each
        iteration scans the cached claims once, then fast-forwards a
        window in which nothing is due (audited naively under
        ``strict``), grants a hot batch to the due components when all
        of them can batch (one alone, or several in lockstep), or
        executes one cycle.
        """
        if not self.idle_skip:
            while not done():
                self._tick_all()
            return
        self._dispatch_begin()
        try:
            hot = self.hot
            strict = self.strict
            while not done():
                bound = limit if chunk is None else min(
                    limit, self.cycle + chunk)
                due, horizon, batchable = self._dispatch_scan(bound, hot)
                if not due:
                    if strict:
                        self._skip_checked(horizon - self.cycle)
                    else:
                        self._dispatch_skip(horizon - self.cycle)
                elif batchable and horizon - self.cycle >= 2:
                    if len(due) == 1:
                        self._dispatch_batch(due[0], horizon)
                    else:
                        self._dispatch_lockstep(due, horizon)
                else:
                    self._dispatch_cycle()
        finally:
            self._dispatch_end()

    def _raise_deadlock(self, max_cycles: int, what: str) -> None:
        last = self.last_active or "<none>"
        raise DeadlockError(
            f"{what} not reached within {max_cycles} cycles "
            f"(stuck at cycle {self.cycle}, last active "
            f"component: {last})"
        )

    # -- introspection ----------------------------------------------------
    def profile(self) -> SimProfile:
        """Cycle accounting: ticked vs skipped cycles, time attribution.

        Cheap counters (ticked/skipped/windows, batched cycles and
        grants) are always maintained;
        per-component tick counts and host-time shares require
        ``profile_time=True``.
        """
        return SimProfile(
            cycles=self.cycle,
            ticked=self._ticked,
            skipped=self._skipped,
            skip_windows=self._skip_windows,
            batched=self._batched,
            batch_grants=self._batch_grants,
            lockstep_grants=self._lockstep_grants,
            components={
                name: ComponentProfile(prof.name, prof.ticks, prof.time_s)
                for name, prof in self._profiles.items()
            },
        )
