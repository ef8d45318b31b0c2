"""Property-based tests on the simulation engine and fluid work."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.work import FluidPool

times = st.lists(
    st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


class TestEngineProperties:
    @given(times)
    @settings(max_examples=60, deadline=None)
    def test_events_dispatch_in_nondecreasing_time(self, schedule: list[float]) -> None:
        sim = Simulator()
        seen: list[float] = []
        for t in schedule:
            sim.at(t, lambda: seen.append(sim.now))
        sim.run_until(max(schedule))
        assert seen == sorted(seen)
        assert len(seen) == len(schedule)

    @given(times)
    @settings(max_examples=60, deadline=None)
    def test_cancelled_events_never_fire(self, schedule: list[float]) -> None:
        sim = Simulator()
        fired: list[int] = []
        handles = [
            sim.at(t, lambda i=i: fired.append(i)) for i, t in enumerate(schedule)
        ]
        for handle in handles[::2]:
            handle.cancel()
        sim.run_until(max(schedule))
        assert all(i % 2 == 1 for i in fired)


class TestFluidWorkProperties:
    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=5.0),   # dt
                st.floats(min_value=0.0, max_value=10.0),    # rate
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation_of_work(
        self, amount: float, segments: list[tuple[float, float]]
    ) -> None:
        pool = FluidPool(Simulator(), "t:work", lambda work, owner: None)
        work = pool.add(amount, None)
        now = 0.0
        integral = 0.0
        for dt, rate in segments:
            pool.set_rate(rate, now)
            now += dt
            integral += rate * dt
        pool.set_rate(pool.rate + 1.0, now)  # a new rate integrates the last
        expected = max(0.0, amount - integral)
        assert work.remaining <= amount
        assert abs(work.remaining - expected) < 1e-6 or work.remaining == 0.0

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_eta_consistency(self, amount: float, rate: float) -> None:
        sim = Simulator()
        completed: list[float] = []
        pool = FluidPool(sim, "t:work", lambda work, owner: completed.append(sim.now))
        work = pool.add(amount, None)
        pool.set_rate(rate, 0.0)
        sim.run_until(work.due)
        assert work.done and completed == [work.due]
