"""Scheduler policies."""

import random

import pytest

from repro.errors import SchedulerError
from repro.runtime.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
)


def drive(scheduler, runnable, steps):
    choices = []
    for step in range(steps):
        choices.append(scheduler.choose(runnable, step))
    return choices


class TestRoundRobin:
    def test_rotates_with_quantum_one(self):
        scheduler = RoundRobinScheduler(quantum=1)
        choices = drive(scheduler, ["A", "B", "C"], 6)
        assert choices == ["A", "B", "C", "A", "B", "C"]

    def test_quantum_runs_thread_repeatedly(self):
        scheduler = RoundRobinScheduler(quantum=3)
        choices = drive(scheduler, ["A", "B"], 8)
        assert choices == ["A", "A", "A", "B", "B", "B", "A", "A"]

    def test_skips_unrunnable_current(self):
        scheduler = RoundRobinScheduler(quantum=4)
        assert scheduler.choose(["A", "B"], 0) == "A"
        # A blocks; only B runnable
        assert scheduler.choose(["B"], 1) == "B"

    def test_invalid_quantum(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler(quantum=0)

    def test_reset(self):
        scheduler = RoundRobinScheduler(quantum=2)
        first = drive(scheduler, ["A", "B"], 4)
        scheduler.reset()
        assert drive(scheduler, ["A", "B"], 4) == first


class TestRandom:
    def test_deterministic_given_seed(self):
        a = drive(RandomScheduler(seed=3), ["A", "B", "C"], 50)
        b = drive(RandomScheduler(seed=3), ["A", "B", "C"], 50)
        assert a == b

    def test_different_seeds_differ(self):
        a = drive(RandomScheduler(seed=3), ["A", "B", "C"], 50)
        b = drive(RandomScheduler(seed=4), ["A", "B", "C"], 50)
        assert a != b

    def test_switch_prob_zero_sticks_to_thread(self):
        scheduler = RandomScheduler(seed=0, switch_prob=0.0)
        choices = drive(scheduler, ["A", "B"], 10)
        assert len(set(choices)) == 1

    def test_switch_prob_one_always_rerolls(self):
        scheduler = RandomScheduler(seed=0, switch_prob=1.0)
        choices = drive(scheduler, ["A", "B", "C"], 200)
        assert set(choices) == {"A", "B", "C"}

    def test_invalid_switch_prob(self):
        with pytest.raises(SchedulerError):
            RandomScheduler(switch_prob=1.5)

    def test_reset_restores_sequence(self):
        scheduler = RandomScheduler(seed=11, switch_prob=0.7)
        first = drive(scheduler, ["A", "B"], 30)
        scheduler.reset()
        assert drive(scheduler, ["A", "B"], 30) == first

    def test_chooses_runnable_after_current_blocks(self):
        scheduler = RandomScheduler(seed=1, switch_prob=0.0)
        first = scheduler.choose(["A", "B"], 0)
        others = [t for t in ["A", "B"] if t != first]
        assert scheduler.choose(others, 1) == others[0]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2014])
    def test_draws_what_randrange_draws(self, seed):
        """``choose`` draws its switch target with ``getrandbits``, as
        CPython's ``randrange(n)`` does, so every schedule is the one a
        reference that calls ``randrange`` makes: here for every runnable
        size from 1 (which consumes bits too) to 13.  Each step's
        runnable set excludes the previous pick, so every step draws."""
        scheduler = RandomScheduler(seed=seed, switch_prob=0.3)
        reference = random.Random(seed)
        for step in range(13 * 20):
            n = step % 13 + 1
            runnable = [f"T{step}.{k}" for k in range(n)]
            expected = runnable[reference.randrange(n)]
            assert scheduler.choose(runnable, step) == expected

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_keeps_or_switches_as_the_randrange_reference(self, seed):
        """The whole policy against the same reference: keep the current
        thread unless ``random()`` falls under ``switch_prob``, else
        switch to ``runnable[randrange(len(runnable))]``."""
        scheduler = RandomScheduler(seed=seed, switch_prob=0.5)
        reference = random.Random(seed)
        threads = [f"T{k}" for k in range(13)]
        current = None
        for step in range(600):
            # a runnable set of every size, rotating through the threads
            n = step % 13 + 1
            runnable = sorted(threads[(step + k) % 13] for k in range(n))
            if current not in runnable or reference.random() < 0.5:
                current = runnable[reference.randrange(n)]
            assert scheduler.choose(runnable, step) == current


class TestScripted:
    def test_replays_script(self):
        scheduler = ScriptedScheduler(["B", "A", "B"])
        assert drive(scheduler, ["A", "B"], 3) == ["B", "A", "B"]
        assert scheduler.exhausted()

    def test_skips_unrunnable_entries(self):
        scheduler = ScriptedScheduler(["C", "B"])
        assert scheduler.choose(["A", "B"], 0) == "B"

    def test_falls_back_to_round_robin(self):
        scheduler = ScriptedScheduler(["A"])
        choices = drive(scheduler, ["A", "B"], 5)
        assert choices[0] == "A"
        assert set(choices[1:]) == {"A", "B"}

    def test_reset(self):
        scheduler = ScriptedScheduler(["B", "A"])
        drive(scheduler, ["A", "B"], 2)
        scheduler.reset()
        assert not scheduler.exhausted()
        assert scheduler.choose(["A", "B"], 0) == "B"
