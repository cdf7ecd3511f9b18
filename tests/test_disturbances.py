"""Seeded disturbance signals: bounds, replay, hold indexing, and the compiled
lookup against the generic sum."""

import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drcbf.disturbances import (
    Constant,
    DisturbanceError,
    SignalRealization,
    SignalSpec,
    Sinusoid,
    UniformNoise,
    evaluate,
    nominal_bound,
    realize,
    term_bound,
)
from drcbf.acc import case_disturbance_spec
from oracles import reference_evaluate


class TestTermValidation:
    def test_uniform_noise_needs_ordered_range(self):
        with pytest.raises((ValueError, DisturbanceError)):
            UniformNoise(2.0, -2.0, 1e-3)

    def test_uniform_noise_needs_positive_hold(self):
        with pytest.raises((ValueError, DisturbanceError)):
            UniformNoise(-1.0, 1.0, 0.0)

    def test_negative_amplitude_is_a_sign_flip_with_magnitude_bound(self):
        term = Sinusoid(-1.5, 5.0)
        assert term_bound(term) == 1.5

    def test_sinusoid_rejects_non_finite_parameters(self):
        with pytest.raises(DisturbanceError):
            Sinusoid(float("nan"), 5.0)

    def test_sinusoid_kind_checked(self):
        with pytest.raises((ValueError, DisturbanceError)):
            Sinusoid(1.0, 5.0, kind="tan")


class TestBounds:
    def test_term_bounds(self):
        assert term_bound(Constant(-3.0)) == 3.0
        assert term_bound(Sinusoid(2.5, 7.0)) == 2.5
        assert term_bound(UniformNoise(-4.0, 3.0, 1e-3)) == 4.0

    def test_channel_bounds_add_and_combine_euclidean(self):
        spec = SignalSpec(
            channels=(
                (UniformNoise(-4.0, 4.0, 1e-3), Sinusoid(1.0, 5.0)),
                (UniformNoise(-4.0, 4.0, 1e-3), Sinusoid(0.5, 10.0, kind="cos")),
            )
        )
        assert nominal_bound(spec) == pytest.approx(math.sqrt(45.25), rel=1e-15)

    def test_large_case_bound(self):
        assert nominal_bound(case_disturbance_spec(3)) == pytest.approx(
            math.sqrt(162.0), rel=1e-15
        )

    def test_empty_channels_have_zero_bound(self):
        spec = SignalSpec(channels=((), ()))
        assert nominal_bound(spec) == 0.0

    def test_every_sample_respects_the_bound(self):
        # 1e5 probes across the horizon never exceed the advertised norm.
        spec = case_disturbance_spec(1, seed=99)
        bound = nominal_bound(spec)
        realization = realize(spec, 30.0)
        rng = np.random.default_rng(5)
        times = rng.uniform(0.0, 30.0, size=100_000)
        worst = 0.0
        for t in times:
            d = evaluate(realization, float(t))
            worst = max(worst, math.hypot(*d))
        assert worst <= bound + 1e-12


class TestRealizeAndReplay:
    def test_draw_layout_mirrors_spec(self):
        spec = case_disturbance_spec(1)
        realization = realize(spec, 0.01)
        assert len(realization.draws) == 2
        for channel_draws, channel_terms in zip(realization.draws, spec.channels):
            assert len(channel_draws) == len(channel_terms)
            assert channel_draws[1] is None  # sinusoid needs no draws
            assert len(channel_draws[0]) == 10  # one draw per hold interval

    def test_noise_free_terms_have_no_draws(self):
        spec = SignalSpec(channels=((Sinusoid(1.0, 2.0),), (Constant(0.5),)))
        realization = realize(spec, 1.0)
        assert realization.draws == ((None,), (None,))

    def test_equal_seeds_replay_exactly(self):
        spec = case_disturbance_spec(1, seed=1234)
        a = realize(spec, 5.0)
        b = realize(spec, 5.0)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, 5.0, size=10_000):
            assert evaluate(a, float(t)) == evaluate(b, float(t))

    def test_different_seeds_differ(self):
        a = realize(case_disturbance_spec(1, seed=1), 1.0)
        b = realize(case_disturbance_spec(1, seed=2), 1.0)
        assert any(
            evaluate(a, t / 100.0) != evaluate(b, t / 100.0) for t in range(100)
        )

    def test_draws_are_channel_and_term_distinct(self):
        # Both channels of the large-noise case draw from the same interval
        # family but must receive independent streams.
        spec = SignalSpec(
            channels=(
                (UniformNoise(-4.0, 4.0, 1e-2),),
                (UniformNoise(-4.0, 4.0, 1e-2),),
            ),
            seed=7,
        )
        realization = realize(spec, 1.0)
        assert realization.draws[0][0] != realization.draws[1][0]

    def test_horizon_must_be_positive(self):
        with pytest.raises((ValueError, DisturbanceError)):
            realize(case_disturbance_spec(1), 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_horizon_must_be_finite(self, horizon):
        spec = case_disturbance_spec(1)
        with pytest.raises(DisturbanceError, match="horizon must be finite"):
            realize(spec, horizon)
        with pytest.raises(DisturbanceError, match="horizon must be finite"):
            SignalRealization(spec=spec, horizon=horizon, draws=realize(spec, 1.0).draws)

    @pytest.mark.parametrize("horizon, hold", [(1e5, 1e-3), (1.0, 5e-324)])
    def test_a_draw_count_above_the_cap_is_rejected_before_drawing(self, horizon, hold, monkeypatch):
        # 1e8 draws, and a count that overflows a float.
        monkeypatch.setattr(np.random, "Generator", None)
        spec = SignalSpec(channels=((UniformNoise(-1.0, 1.0, hold),),))
        with pytest.raises(DisturbanceError, match="would draw more than 10000000 values"):
            realize(spec, horizon)


class TestEvaluate:
    def test_pure_sinusoid_values(self):
        spec = SignalSpec(
            channels=(
                (Sinusoid(2.0, 5.0), Sinusoid(1.5, 10.0, kind="cos")),
                (Sinusoid(1.0, 10.0), Sinusoid(2.0, 6.0, kind="cos")),
            )
        )
        realization = realize(spec, 30.0)
        assert evaluate(realization, 0.0) == pytest.approx((1.5, 2.0), abs=1e-15)
        t = 0.37
        expected = (
            2.0 * math.sin(5.0 * t) + 1.5 * math.cos(10.0 * t),
            1.0 * math.sin(10.0 * t) + 2.0 * math.cos(6.0 * t),
        )
        assert evaluate(realization, t) == pytest.approx(expected, rel=1e-15)

    def test_constant_channel(self):
        spec = SignalSpec(channels=((Constant(2.5),),))
        assert evaluate(realize(spec, 1.0), 0.9) == (2.5,)

    def test_empty_channels_give_zero(self):
        spec = SignalSpec(channels=((), ()))
        assert evaluate(realize(spec, 1.0), 0.5) == (0.0, 0.0)

    def test_forced_midpoint_draws_recover_deterministic_part(self):
        # Replacing every draw with the interval midpoint removes the noise,
        # leaving the sinusoid alone: zero at t = 0 for the large-noise case.
        spec = case_disturbance_spec(3)
        base = realize(spec, 1.0)
        forced = SignalRealization(
            spec=spec,
            horizon=1.0,
            draws=tuple(
                tuple(
                    None if d is None else tuple(0.0 for _ in d) for d in channel
                )
                for channel in base.draws
            ),
        )
        assert evaluate(forced, 0.0) == pytest.approx((0.0, 0.0), abs=1e-15)
        t = 0.25
        assert evaluate(forced, t) == pytest.approx(
            (5.0 * math.sin(2.0 * t), 4.0 * math.sin(2.0 * t)), rel=1e-15
        )

    def test_noise_holds_within_interval_and_switches_after(self):
        spec = SignalSpec(channels=((UniformNoise(-4.0, 4.0, 1e-3),),), seed=3)
        realization = realize(spec, 1.0)
        v1 = evaluate(realization, 0.0001)
        v2 = evaluate(realization, 0.0009)
        v3 = evaluate(realization, 0.0011)
        assert v1 == v2
        assert v1 != v3  # adjacent independent uniform draws collide with
        # probability zero in double precision

    def test_hold_index_is_stable_against_float_grid_error(self):
        # 0.003/0.001 is slightly below 3 in floating point; the index must
        # still land on the third interval, matching the control grid.
        spec = SignalSpec(channels=((UniformNoise(-4.0, 4.0, 1e-3),),), seed=3)
        realization = realize(spec, 1.0)
        t = 3 * 1e-3
        assert evaluate(realization, t) == evaluate(realization, 0.0035)

    def test_evaluation_at_the_horizon_is_allowed(self):
        spec = case_disturbance_spec(1)
        realization = realize(spec, 0.01)
        values = evaluate(realization, 0.01)
        assert all(math.isfinite(v) for v in values)

    def test_evaluation_outside_horizon_rejected(self):
        realization = realize(case_disturbance_spec(1), 0.01)
        with pytest.raises(DisturbanceError):
            evaluate(realization, 0.02)
        with pytest.raises(DisturbanceError):
            evaluate(realization, -0.001)


def same_as_reference(realization, t):
    """evaluate(realization, t), checked against the generic sum: the same
    tuple by repr (signed zeros, nan and classes included), or the same
    exception with the same message."""
    try:
        expected = reference_evaluate(realization, t)
    except Exception as exc:
        with pytest.raises(Exception) as err:
            evaluate(realization, t)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return None
    got = evaluate(realization, t)
    assert repr(got) == repr(expected), t
    return got


def forced(spec, horizon, value):
    """A realization of spec whose every held draw is value."""
    base = realize(spec, horizon)
    draws = tuple(
        tuple(None if d is None else (value,) * len(d) for d in channel)
        for channel in base.draws
    )
    return SignalRealization(spec=spec, horizon=horizon, draws=draws)


finite = st.floats(min_value=-50.0, max_value=50.0)
terms = st.one_of(
    st.builds(Constant, finite),
    st.builds(Sinusoid, finite, finite, finite, st.sampled_from(("sin", "cos"))),
    st.builds(
        lambda low, width, hold: UniformNoise(low, low + width, hold),
        finite,
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=1e-3, max_value=2.0),
    ),
)


class TestCompiledLookup:
    """The first evaluate compiles a realization into one function; it must
    return exactly what the generic term-by-term sum returns."""

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_every_control_step_of_a_study_run(self, case):
        realization = realize(case_disturbance_spec(case), 30.0)
        for k in range(30001):
            same_as_reference(realization, k * 1e-3)

    @given(
        st.lists(st.lists(terms, max_size=4), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-2, max_value=5.0),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
    )
    def test_drawn_specs_at_drawn_times(self, channels, seed, horizon, fractions):
        realization = realize(SignalSpec(channels=channels, seed=seed), horizon)
        for fraction in fractions:
            same_as_reference(realization, fraction * horizon)
        same_as_reference(realization, horizon)

    def test_signed_zeros(self):
        # 0.0 + -0.0 is 0.0: a channel of negative zeros sums to +0.0, which
        # the CSV writes as 0, not -0.
        spec = SignalSpec(
            channels=(
                (UniformNoise(-1.0, 1.0, 0.1),),
                (Constant(-0.0),),
                (Constant(-0.0), UniformNoise(-1.0, 1.0, 0.1), Sinusoid(-1.0, 3.0)),
                (Sinusoid(-1.0, 3.0),),
            ),
            seed=4,
        )
        realization = forced(spec, 1.0, -0.0)
        for t in (0.0, -0.0, 0.05, 1.0):
            wave = 0.0 + -1.0 * math.sin(3.0 * t + 0.0)
            assert repr(same_as_reference(realization, t)) == repr((0.0, 0.0, wave, wave))

    @pytest.mark.parametrize("hold", [1e-3, 0.1, 0.3, 1.0 / 3.0])
    def test_one_ulp_around_every_hold_boundary(self, hold):
        spec = SignalSpec(channels=((UniformNoise(-4.0, 4.0, hold),),), seed=11)
        horizon = 2.0
        realization = realize(spec, horizon)
        for k in range(int(horizon / hold) + 2):
            t = k * hold
            for probe in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)):
                same_as_reference(realization, probe)

    def test_horizon_and_argument_types(self):
        realization = realize(case_disturbance_spec(1), 3.0)
        last = same_as_reference(realization, 3.0)
        assert last == same_as_reference(realization, 3)
        assert last == same_as_reference(realization, np.float64(3.0))
        assert same_as_reference(realization, 0) == same_as_reference(realization, 0.0)
        same_as_reference(realization, np.float64(1.2345))
        same_as_reference(realization, math.nextafter(3.0 * (1.0 + 1e-9), 0.0))

    @pytest.mark.parametrize(
        "spec",
        [
            case_disturbance_spec(1),
            SignalSpec(channels=((Sinusoid(1.0, 2.0), Constant(0.5)), (Constant(1.0),))),
            SignalSpec(channels=((), ())),
        ],
    )
    def test_nan_time_matches_the_generic_sum(self, spec):
        same_as_reference(realize(spec, 1.0), math.nan)

    @pytest.mark.parametrize(
        "spec",
        [case_disturbance_spec(1), SignalSpec(channels=((Sinusoid(1.0, 2.0), Constant(0.5)),))],
        ids=["noise", "sinusoids"],
    )
    def test_nan_time_is_outside_the_horizon(self, spec):
        realization = realize(spec, 1.0)
        with pytest.raises(DisturbanceError, match="time nan is outside the realized horizon"):
            evaluate(realization, math.nan)

    @pytest.mark.parametrize(
        "t", [-1e-300, -0.5, 3.0 * (1.0 + 2e-9), 4.0, math.inf, -math.inf]
    )
    def test_outside_the_horizon_raises_the_same_message(self, t):
        realization = realize(case_disturbance_spec(2), 3.0)
        with pytest.raises(DisturbanceError, match="outside the realized horizon"):
            evaluate(realization, t)
        assert same_as_reference(realization, t) is None

    def test_compiled_once_on_the_first_evaluate(self):
        realization = realize(case_disturbance_spec(1), 1.0)
        assert realization._lookup is None
        evaluate(realization, 0.5)
        lookup = realization._lookup
        assert callable(lookup)
        evaluate(realization, 0.25)
        assert realization._lookup is lookup

    def test_draws_are_shared_not_copied(self):
        realization = realize(case_disturbance_spec(1), 1.0)
        evaluate(realization, 0.5)
        held = realization._lookup.__globals__
        assert any(v is realization.draws[0][0] for v in held.values())
        assert any(v is realization.draws[1][0] for v in held.values())

    def test_the_lookup_is_freed_with_its_realization(self):
        # No reference cycle: a run's draws are freed when its realization
        # is, without waiting for the garbage collector.
        realization = realize(case_disturbance_spec(1), 1.0)
        evaluate(realization, 0.5)
        lookup = weakref.ref(realization._lookup)
        gc.disable()
        try:
            del realization
            assert lookup() is None
        finally:
            gc.enable()

    def test_a_compiled_realization_pickles(self):
        realization = realize(case_disturbance_spec(1), 1.0)
        value = evaluate(realization, 0.5)
        copy = pickle.loads(pickle.dumps(realization))
        assert copy == realization and copy._lookup is None
        assert evaluate(copy, 0.5) == value


class TestSpecValidation:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_unsigned_seed_realizes(self, seed):
        spec = SignalSpec(
            channels=((UniformNoise(-1.0, 1.0, 0.5),),), seed=seed
        )
        realization = realize(spec, 1.0)
        value = evaluate(realization, 0.25)[0]
        assert -1.0 <= value <= 1.0

    def test_spec_requires_a_channel(self):
        with pytest.raises((ValueError, DisturbanceError)):
            SignalSpec(channels=())


def test_draws_are_plain_floats_as_converted_one_by_one():
    spec = case_disturbance_spec(3, seed=12345)
    realization = realize(spec, 2.0)
    for ci, terms in enumerate(spec.channels):
        for ti, term in enumerate(terms):
            if not isinstance(term, UniformNoise):
                continue
            seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(ci, ti))
            values = np.random.Generator(np.random.Philox(seq)).uniform(term.low, term.high, 2000)
            drawn = realization.draws[ci][ti]
            assert all(type(v) is float for v in drawn)
            assert repr(drawn) == repr(tuple(float(v) for v in values))
