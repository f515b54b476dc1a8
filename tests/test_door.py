import pytest

from insiderctl.door import (
    INITIAL,
    LOCKED,
    NORMAL,
    UNLOCKED,
    DoorEvent,
    DoorScriptError,
    DoorState,
    door_run,
    door_step,
    format_trace,
    is_open,
    parse_script,
)


def ev(kind, dt=0.0):
    return DoorEvent(kind, dt)


def run(*events):
    return door_run(list(events))


class TestStep:
    def test_lock_is_immediate_from_anywhere(self):
        for mode, timer in ((NORMAL, 12.0), (UNLOCKED, None), (LOCKED, None)):
            state = DoorState(mode, 50.0, timer if mode == NORMAL else None)
            locked = door_step(state, ev("lock"))
            assert locked == DoorState(LOCKED, 0.0, None)

    def test_unlock_is_immediate_from_anywhere(self):
        for mode in (NORMAL, UNLOCKED, LOCKED):
            state = DoorState(mode, 7.0)
            assert door_step(state, ev("unlock")) == DoorState(UNLOCKED, 0.0, None)

    def test_pin_starts_timer_in_normal(self):
        state = door_step(INITIAL, ev("pin_correct"))
        assert state.pin_timer == 0.0
        assert not is_open(state)

    def test_second_pin_retains_running_timer(self):
        state = door_step(INITIAL, ev("pin_correct"))
        state = door_step(state, ev("epsilon", 10))
        assert state.pin_timer == 10.0
        assert door_step(state, ev("pin_correct")).pin_timer == 10.0

    def test_pin_ignored_outside_normal(self):
        for mode in (UNLOCKED, LOCKED):
            state = DoorState(mode, 3.0)
            assert door_step(state, ev("pin_correct")) == state

    def test_incorrect_pin_is_a_noop(self):
        state = DoorState(NORMAL, 5.0, 20.0)
        assert door_step(state, ev("pin_incorrect")) == state

    def test_window_boundaries_exact(self):
        state = door_step(INITIAL, ev("pin_correct"))
        at_30 = door_step(state, ev("epsilon", 30))
        assert at_30.pin_timer == 30.0 and is_open(at_30)
        just_before_35 = door_step(at_30, ev("epsilon", 4.999))
        assert is_open(just_before_35)
        at_35 = door_step(at_30, ev("epsilon", 5))
        assert at_35.pin_timer is None and not is_open(at_35)

    def test_lockout_boundary_exact(self):
        locked = door_step(INITIAL, ev("lock"))
        at_299 = door_step(locked, ev("epsilon", 299))
        assert at_299.mode == LOCKED
        at_300 = door_step(at_299, ev("epsilon", 1))
        assert at_300 == DoorState(NORMAL, 0.0, None)

    def test_jumping_past_the_window_misses_it(self):
        state = door_step(INITIAL, ev("pin_correct"))
        after = door_step(state, ev("epsilon", 40))
        assert after.pin_timer is None and not is_open(after)


class TestScenarios:
    def test_emergency_entry_window(self):
        # correct PIN, 30 seconds of buzzer, then a five-second window
        trace = run(ev("pin_correct"), ev("epsilon", 30), ev("epsilon", 5))
        assert [step.is_open for step in trace] == [False, True, False]
        assert trace[-1].state.pin_timer is None

    def test_pilots_preempt_with_lock(self):
        trace = run(ev("pin_correct"), ev("epsilon", 15), ev("lock"), ev("epsilon", 20))
        assert all(not step.is_open for step in trace)
        assert trace[-1].state.mode == LOCKED

    def test_lockout_expires_after_five_minutes(self):
        trace = run(ev("pin_correct"), ev("epsilon", 10), ev("lock"), ev("epsilon", 299), ev("epsilon", 1))
        assert trace[2].state.mode == LOCKED
        assert trace[3].state.mode == LOCKED
        assert trace[4].state == DoorState(NORMAL, 0.0, None)

    def test_run_of_empty_script(self):
        assert door_run([]) == []

    def test_open_after_32_seconds(self):
        trace = run(ev("pin_correct"), ev("epsilon", 32))
        assert trace[-1].is_open

    def test_locked_never_opens_before_timeout(self):
        state = door_step(INITIAL, ev("lock"))
        for dt in (1, 10, 100, 188):
            state = door_step(state, ev("epsilon", dt))
            assert state.mode == LOCKED and not is_open(state)

    def test_determinism(self):
        script = [ev("pin_correct"), ev("epsilon", 31), ev("lock"), ev("epsilon", 300)]
        assert door_run(script) == door_run(script)


class TestInvariants:
    def test_open_implies_normal_and_window(self):
        import random

        rng = random.Random(7)
        kinds = ("lock", "unlock", "pin_correct", "pin_incorrect", "epsilon")
        for _ in range(200):
            events = [
                ev(k, rng.uniform(0.5, 120) if k == "epsilon" else 0.0)
                for k in (rng.choice(kinds) for _ in range(12))
            ]
            for step in door_run(events):
                if step.is_open:
                    assert step.state.mode == NORMAL
                    assert 30.0 <= step.state.pin_timer < 35.0


class TestScriptFormat:
    SCRIPT = """\
# emergency access attempt
pin_ok
wait 30
wait 5
lock
wait 300
"""

    def test_parse(self):
        events = parse_script(self.SCRIPT)
        assert [e.kind for e in events] == [
            "pin_correct",
            "epsilon",
            "epsilon",
            "lock",
            "epsilon",
        ]
        assert events[1].dt == 30.0

    def test_trace_format(self):
        trace = door_run(parse_script("pin_ok\nwait 30\n"))
        text = format_trace(trace)
        assert text.splitlines() == [
            "0\tpin_correct\tNormal\t0\t0\tclosed",
            "1\twait 30\tNormal\t30\t30\topen",
        ]

    def test_bad_tokens_rejected(self):
        for bad in ("open sesame", "wait", "wait -3", "wait soon", "pin_ok now"):
            with pytest.raises(DoorScriptError):
                parse_script(bad)

    @pytest.mark.parametrize("dt", ["nan", "inf", "1e400"])
    def test_non_finite_wait_rejected(self, dt):
        message = f"line 3: wait needs a positive, finite duration, found '{dt}'"
        with pytest.raises(DoorScriptError, match=message):
            parse_script(f"lock\n\nwait {dt}\nwait 400\n")

    def test_clock_overflow_names_the_step(self):
        events = parse_script("wait 1e308\nwait 1e308\npin_ok\nwait 31\n")
        message = r"step 1 \(wait 1e\+308\): door clock inf is not finite"
        with pytest.raises(DoorScriptError, match=message):
            door_run(events)

    def test_state_refuses_non_finite_times(self):
        for clock, timer in ((float("inf"), None), (float("nan"), None), (0.0, float("inf"))):
            with pytest.raises(ValueError, match="is not finite"):
                DoorState(NORMAL, clock, timer)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            DoorEvent("epsilon", 0.0)
        for dt in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive, finite duration"):
                DoorEvent("epsilon", dt)
        with pytest.raises(ValueError):
            DoorEvent("lock", 3.0)
        with pytest.raises(ValueError):
            DoorEvent("knock")
