"""Discrete-event simulator for the cockpit-door lock mechanism.

Three modes: Normal, Unlocked, Locked.  Pilots can lock or unlock at any
time with immediate effect.  A correct PIN entered in Normal mode starts a
timer; once it reaches 30 s the door opens for a 5 s window (reported via a
derived ``is_open`` flag, not a fourth mode) unless the pilots lock first.
Locking disables the keypad; after 300 s Locked reverts to Normal.

Timing is exact: the open window is ``30 <= pin_timer < 35`` and the Locked
timeout fires at ``clock >= 300``, both boundaries inclusive as written.
A second correct PIN while the timer is already running keeps the running
timer (the alternative, restarting it, is equally defensible; this keeps
the earliest window).
"""

from __future__ import annotations

from .record import record

NORMAL = "Normal"
UNLOCKED = "Unlocked"
LOCKED = "Locked"

OPEN_AFTER = 30.0
WINDOW = 5.0
LOCKOUT = 300.0


@record(frozen=True)
class DoorState:
    mode: str = NORMAL
    clock: float = 0.0
    pin_timer: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (NORMAL, UNLOCKED, LOCKED):
            raise ValueError(f"unknown door mode {self.mode!r}")
        if self.pin_timer is not None and self.mode != NORMAL:
            raise ValueError("pin timer is only meaningful in Normal mode")


@record(frozen=True)
class DoorEvent:
    kind: str  # lock | unlock | pin_correct | pin_incorrect | epsilon
    dt: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("lock", "unlock", "pin_correct", "pin_incorrect", "epsilon"):
            raise ValueError(f"unknown door event {self.kind!r}")
        if self.kind == "epsilon" and self.dt <= 0:
            raise ValueError("epsilon needs a positive duration")
        if self.kind != "epsilon" and self.dt:
            raise ValueError(f"{self.kind} carries no duration")


INITIAL = DoorState()


def is_open(state: DoorState) -> bool:
    return (
        state.mode == NORMAL
        and state.pin_timer is not None
        and OPEN_AFTER <= state.pin_timer < OPEN_AFTER + WINDOW
    )


def door_step(state: DoorState, event: DoorEvent) -> DoorState:
    if event.kind == "lock":
        return DoorState(LOCKED, 0.0, None)
    if event.kind == "unlock":
        return DoorState(UNLOCKED, 0.0, None)
    if event.kind == "pin_correct":
        if state.mode == NORMAL and state.pin_timer is None:
            return DoorState(NORMAL, state.clock, 0.0)
        return state  # running timer retained; no keypad effect elsewhere
    if event.kind == "pin_incorrect":
        return state
    # epsilon: advance, then apply timed transitions
    clock = state.clock + event.dt
    pin_timer = None if state.pin_timer is None else state.pin_timer + event.dt
    if state.mode == LOCKED and clock >= LOCKOUT:
        return DoorState(NORMAL, 0.0, None)
    if pin_timer is not None and pin_timer >= OPEN_AFTER + WINDOW:
        pin_timer = None
    return DoorState(state.mode, clock, pin_timer)


@record(frozen=True)
class TraceStep:
    event: DoorEvent
    state: DoorState
    is_open: bool


def door_run(events, start: DoorState = INITIAL) -> list[TraceStep]:
    """Fold :func:`door_step` over a finite script, recording each step."""
    trace = []
    state = start
    for event in events:
        state = door_step(state, event)
        trace.append(TraceStep(event, state, is_open(state)))
    return trace


# ---------------------------------------------------------------------------
# Script file format: one event per line


_EVENT_TOKENS = {
    "lock": "lock",
    "unlock": "unlock",
    "pin_ok": "pin_correct",
    "pin_bad": "pin_incorrect",
}


class DoorScriptError(ValueError):
    pass


def parse_script(text: str) -> list[DoorEvent]:
    """Parse an event script: tokens ``lock``, ``unlock``, ``pin_ok``,
    ``pin_bad``, ``wait <seconds>``; blank lines and ``#`` comments
    ignored."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in _EVENT_TOKENS:
            if len(parts) != 1:
                raise DoorScriptError(f"line {lineno}: {parts[0]} takes no argument")
            events.append(DoorEvent(_EVENT_TOKENS[parts[0]]))
        elif parts[0] == "wait":
            if len(parts) != 2:
                raise DoorScriptError(f"line {lineno}: wait needs a duration in seconds")
            try:
                dt = float(parts[1])
            except ValueError:
                raise DoorScriptError(
                    f"line {lineno}: bad duration {parts[1]!r}"
                ) from None
            if dt <= 0:
                raise DoorScriptError(f"line {lineno}: wait needs a positive duration")
            events.append(DoorEvent("epsilon", dt))
        else:
            raise DoorScriptError(f"line {lineno}: unknown event {parts[0]!r}")
    return events


def _fmt(x: float) -> str:
    return f"{x:g}"


def format_trace(trace) -> str:
    """Tab-separated trace lines: step, event, mode, clock, pin_timer,
    is_open."""
    lines = []
    for i, step in enumerate(trace):
        event = step.event.kind if step.event.kind != "epsilon" else f"wait {_fmt(step.event.dt)}"
        timer = "-" if step.state.pin_timer is None else _fmt(step.state.pin_timer)
        lines.append(
            "\t".join(
                (
                    str(i),
                    event,
                    step.state.mode,
                    _fmt(step.state.clock),
                    timer,
                    "open" if step.is_open else "closed",
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
