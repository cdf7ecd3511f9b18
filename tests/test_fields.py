"""Jet-evaluable scalar fields, Lie derivatives, and relative-degree checks."""

import ast
import math
import operator
from operator import add, mul, neg, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcbf._trace import _Deopt, _Trace, _memo
from drcbf.fields import (
    ControlAffineSystem,
    DimensionMismatchError,
    FieldError,
    ReciprocalGuardError,
    _grad_times_matrix,
    as_state,
    clamped_guards,
    constant_field,
    coordinate_field,
    field_from_callable,
    lie_derivative_field,
    lie_f,
    lie_h,
    reciprocal_field,
    verify_relative_degree,
)

from drcbf.acc import build_study
from drcbf.controller import control_step
from drcbf.disturbances import evaluate as evaluate_signal
from drcbf.simulate import integrate_step
from oracles import canonical, fd_gradient, literal, operations, straight_line_regions

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def make_two_state_system(drift=None, h=None):
    """Small test plant: x0' = x1, x1' = u + d with configurable maps."""
    f = drift if drift is not None else (lambda x: (x[1], 0.0))
    hmap = h if h is not None else (lambda x: ((0.0,), (1.0,)))
    return ControlAffineSystem(
        n=2, p=1, q=1, f=f, g=lambda x: ((0.0,), (1.0,)), h=hmap, ird_m=2, drd_r=2
    )


class TestFieldEvaluation:
    def test_value_and_gradient_of_product(self):
        field = field_from_callable(lambda x: x[0] * x[1], 2)
        value, grad = field.value_and_gradient((2.0, 3.0))
        assert value == 6.0
        assert grad == (3.0, 2.0)

    def test_constant_field_has_zero_gradient(self):
        field = constant_field(7.5, 3)
        assert field.value((1.0, 2.0, 3.0)) == 7.5
        assert field.gradient((1.0, 2.0, 3.0)) == (0.0, 0.0, 0.0)

    def test_coordinate_field_selects_component(self):
        field = coordinate_field(1, 3)
        assert field.value((4.0, 5.0, 6.0)) == 5.0
        assert field.gradient((4.0, 5.0, 6.0)) == (0.0, 1.0, 0.0)

    def test_coordinate_index_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatchError):
            coordinate_field(3, 2)

    def test_wrong_state_length_rejected(self):
        field = field_from_callable(lambda x: x[0], 2)
        with pytest.raises(DimensionMismatchError):
            field.value((1.0,))

    @given(
        st.tuples(finite, finite),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_algebra_matches_pointwise_arithmetic(self, x, a):
        f = field_from_callable(lambda s: s[0] * s[0] + s[1], 2)
        g = field_from_callable(lambda s: s[0] / (1.0 + s[0] * s[0]) + 2.0 * s[1], 2)
        combo = f + g
        assert combo.value(x) == pytest.approx(f.value(x) + g.value(x), abs=1e-12)
        scaled = a * f
        assert scaled.value(x) == pytest.approx(a * f.value(x), abs=1e-12)
        diff = f - g
        assert diff.value(x) == pytest.approx(f.value(x) - g.value(x), abs=1e-12)
        prod = f * g
        assert prod.value(x) == pytest.approx(f.value(x) * g.value(x), rel=1e-12, abs=1e-12)
        neg = -f
        assert neg.value(x) == -f.value(x)

    @given(st.tuples(finite, finite))
    def test_gradients_of_composites_match_finite_differences(self, x):
        f = field_from_callable(lambda s: s[0] * s[0] * s[1] + 1.0 / (2.0 + 0.1 * s[1]), 2)
        g = field_from_callable(lambda s: s[0] ** 3 * 0.05 + s[1] * s[1], 2)
        for field in (f + g, f * g, 3.0 * f - g, -f):
            grad = field.gradient(x)
            approx = fd_gradient(field.value, x)
            for a, b in zip(grad, approx):
                assert a == pytest.approx(b, rel=1e-5, abs=1e-5)


class TestLieDerivatives:
    def test_drift_derivative_of_gap_barrier(self):
        # Gap dynamics: D' = v_l - v_f with v_l = 20; barrier D - 10.
        system = make_two_state_system(drift=lambda x: (20.0 - x[1], 0.0))
        barrier = field_from_callable(lambda x: x[0] - 10.0, 2)
        assert lie_f(barrier, system, (100.0, 13.89)) == pytest.approx(6.11, abs=1e-12)

    def test_drift_derivative_of_constant_is_zero(self):
        system = make_two_state_system()
        assert lie_f(constant_field(4.0, 2), system, (1.0, 2.0)) == 0.0

    def test_drift_derivative_of_product_barrier(self):
        system = make_two_state_system(drift=lambda x: (x[1], 0.0))
        barrier = field_from_callable(lambda x: x[0] * x[1], 2)
        # grad = (x1, x0), drift = (x1, 0): value x1^2 = 9 at (2, 3).
        assert lie_f(barrier, system, (2.0, 3.0)) == pytest.approx(9.0, abs=1e-12)

    def test_input_and_disturbance_rows(self):
        system = make_two_state_system()
        barrier = field_from_callable(lambda x: x[0] - 10.0, 2)
        speed = field_from_callable(lambda x: x[1], 2)
        x = (5.0, 1.0)
        assert _grad_times_matrix(barrier.gradient(x), system.g(x), 2, 1) == (0.0,)
        assert _grad_times_matrix(speed.gradient(x), system.g(x), 2, 1) == (1.0,)
        assert lie_h(speed, system, (5.0, 1.0)) == (1.0,)

    @given(
        st.tuples(finite, finite),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_lie_derivative_is_linear_in_the_field(self, x, a, b):
        vector_map = lambda s: (s[1] + 1.0, s[0] * 0.5 - 2.0)
        f = field_from_callable(lambda s: s[0] * s[0] + s[1], 2)
        g = field_from_callable(lambda s: s[0] * s[1] - 3.0 * s[1], 2)
        combined = lie_derivative_field(f * a + g * b, vector_map)
        separate_a = lie_derivative_field(f, vector_map)
        separate_b = lie_derivative_field(g, vector_map)
        expected = a * separate_a.value(x) + b * separate_b.value(x)
        assert combined.value(x) == pytest.approx(expected, rel=1e-12, abs=1e-10)

    @given(st.tuples(finite, finite))
    def test_lie_derivative_field_matches_directional_finite_difference(self, x):
        vector_map = lambda s: (s[1] / (1.0 + s[1] * s[1]), 0.5 * s[0])
        f = field_from_callable(lambda s: s[0] ** 3 * 0.01 + s[0] * s[1], 2)
        lf = lie_derivative_field(f, vector_map)
        grad = fd_gradient(f.value, x, rel_step=1e-6)
        vec = vector_map(x)
        expected = grad[0] * vec[0] + grad[1] * vec[1]
        assert lf.value(x) == pytest.approx(expected, rel=1e-4, abs=1e-5)

    def test_nested_lie_derivatives_remain_differentiable(self):
        # Second-order chain: the gradient of L_f(L_f b) must be exact.
        system = make_two_state_system(drift=lambda x: (x[1], -0.5 * x[0]))
        b = field_from_callable(lambda x: x[0] * x[0] + 0.25 * x[1], 2)
        lf1 = lie_derivative_field(b, system.f)
        lf2 = lie_derivative_field(lf1, system.f)
        x = (1.3, -0.7)
        approx = fd_gradient(lf2.value, x)
        for a, e in zip(lf2.gradient(x), approx):
            assert a == pytest.approx(e, rel=1e-5, abs=1e-6)


class TestReciprocalField:
    def test_value_and_gradient_at_interior_point(self):
        b = field_from_callable(lambda x: x[0] - 10.0, 2)
        rec = reciprocal_field(b)
        x = (100.0, 13.89)
        assert rec.value(x) == pytest.approx(1.0 / 90.0, rel=1e-15)
        expected = tuple(-(1.0 / 90.0**2) * g for g in b.gradient(x))
        for a, e in zip(rec.gradient(x), expected):
            assert a == pytest.approx(e, rel=1e-12, abs=1e-15)

    def test_below_guard_raises_with_value(self):
        b = field_from_callable(lambda x: x[0], 1)
        rec = reciprocal_field(b, guard=1e-6)
        with pytest.raises(ReciprocalGuardError) as err:
            rec.value((1e-9,))
        assert "1e-09" in str(err.value) or "guard" in str(err.value).lower()

    def test_clamped_context_substitutes_guard_reciprocal(self):
        b = field_from_callable(lambda x: x[0], 1)
        rec = reciprocal_field(b, guard=1e-6)
        with clamped_guards() as events:
            value, grad = rec.value_and_gradient((1e-9,))
        assert value == pytest.approx(1.0 / 1e-6)
        assert grad == (0.0,)  # clamped branch is locally constant
        assert len(events) == 1
        assert events[0].value == pytest.approx(1e-9)
        assert events[0].guard == pytest.approx(1e-6)

    def test_no_events_recorded_on_interior_evaluations(self):
        b = field_from_callable(lambda x: x[0], 1)
        rec = reciprocal_field(b, guard=1e-6)
        with clamped_guards() as events:
            rec.value((2.0,))
        assert events == []

    def test_positive_domain_rejects_negative_argument(self):
        b = field_from_callable(lambda x: x[0], 1)
        rec = reciprocal_field(b, guard=1e-6, positive_domain=True)
        with pytest.raises(ReciprocalGuardError):
            rec.value((-5.0,))

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_reciprocal_times_argument_is_one(self, v):
        b = field_from_callable(lambda x: x[0], 1)
        rec = reciprocal_field(b)
        assert rec.value((v,)) * v == pytest.approx(1.0, rel=1e-15)


class TestSystemAndRelativeDegree:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(FieldError):
            ControlAffineSystem(
                n=0, p=1, q=1, f=lambda x: (), g=lambda x: (), h=lambda x: (),
                ird_m=1, drd_r=1,
            )

    def test_disturbance_degree_cannot_exceed_input_degree(self):
        with pytest.raises(FieldError):
            make_system_with_degrees(ird_m=1, drd_r=2)

    def test_as_state_validates_length(self):
        assert as_state([1, 2.5], 2) == (1.0, 2.5)
        with pytest.raises(DimensionMismatchError):
            as_state((1.0,), 2)
        checked = as_state((1.0, 2.5), 2)
        assert as_state(checked, 2) is checked
        with pytest.raises(DimensionMismatchError):
            as_state(checked, 3)

    def test_double_integrator_degrees_verify(self):
        system = make_two_state_system()
        b = field_from_callable(lambda x: x[0], 2)
        report = verify_relative_degree(system, b, [(1.0, 2.0), (0.5, -1.0)])
        assert report.ird_ok and report.drd_ok
        assert report.witnesses == ()

    def test_wrong_disturbance_degree_is_reported_with_witness(self):
        # Disturbance already enters the first derivative, so declaring
        # degree 2 must fail with a level-0 nonzero-row witness.
        system = ControlAffineSystem(
            n=2,
            p=1,
            q=1,
            f=lambda x: (x[1], 0.0),
            g=lambda x: ((0.0,), (1.0,)),
            h=lambda x: ((1.0,), (0.0,)),
            ird_m=2,
            drd_r=2,
        )
        b = field_from_callable(lambda x: x[0], 2)
        report = verify_relative_degree(system, b, [(1.0, 2.0)])
        assert report.ird_ok
        assert not report.drd_ok
        assert report.witnesses
        assert report.witnesses[0]["check"] == "drd"

    def test_wrong_input_degree_is_reported(self):
        system = make_two_state_system()
        speed = field_from_callable(lambda x: x[1], 2)  # true input degree 1
        report = verify_relative_degree(system, speed, [(1.0, 2.0)])
        assert not report.ird_ok


def make_system_with_degrees(ird_m, drd_r):
    return ControlAffineSystem(
        n=2,
        p=1,
        q=1,
        f=lambda x: (x[1], 0.0),
        g=lambda x: ((0.0,), (1.0,)),
        h=lambda x: ((0.0,), (1.0,)),
        ird_m=ird_m,
        drd_r=drd_r,
    )


class TestTrace:
    def test_constants_keep_their_values(self):
        # Finite constants are written as literals, -0.0 with its sign, and
        # inf and nan by name: every result matches the evaluation on floats.
        constants = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 7)

        def evaluate(x):
            results = []
            for k in constants:
                results += [x + k, k - x, x * k, k / x, k * x - k]
            return tuple(results), constants, x < 1e16

        trace = _Trace()
        traced = evaluate(trace.input(2.5))[:2]
        function = trace.function([f"return {trace.operand(traced)}"])
        for x in (2.5, -3.0, 1e-300, 1e15):
            assert repr(function(x)) == repr(evaluate(x)[:2])
        # The recorded comparison with the literal 1e16 flips past it.
        with pytest.raises(_Deopt):
            function(1e300)

    def test_bit_neutral_operations_are_not_recorded(self):
        # A float times 1.0 is the float itself, and a right-hand side seen
        # before, with the operands of + and * in either order, is the name
        # it was assigned to; 0.0 + x is kept, since it turns -0.0 into 0.0,
        # and so is an int times 1.0, which is a float.
        def evaluate(x, n):
            return (x * 1.0, 1.0 * x, x * 2.0, 2.0 * x, x * 2.0, 0.0 + x, n * 1.0, -x, -x)

        trace = _Trace()
        x, n = trace.input(-0.0), trace.input(3)
        traced = evaluate(x, n)
        function = trace.function([f"return {trace.operand(traced)}"])
        assert trace.render() == ["t2 = x0 * 2.0", "t5 = 0.0 + x0", "t6 = x1 * 1.0", "t7 = -x0"]
        for args in ((-0.0, 3), (2.5, -7), (math.inf, 0)):
            assert repr(function(*args)) == repr(evaluate(*args))


# Straight-line programs for the simplification's property test: each step
# applies an operation to two earlier values (inputs, results or constants,
# an index taken modulo the values so far); the last results are the outputs.
_OPERATIONS = {"+": add, "-": sub, "*": mul, "/": truediv, "neg": lambda a, _: neg(a)}
_CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 0, 1)
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan,
            1.5, -3.25, 7.0, 1e-3)
_OPERAND = st.one_of(st.integers(0, 40), st.sampled_from(_CONSTANTS))
_PROGRAM = st.tuples(
    st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from(sorted(_OPERATIONS)), _OPERAND, _OPERAND),
             min_size=1, max_size=14),
    st.lists(st.booleans(), min_size=1, max_size=4),
)


def _run(program, inputs):
    """Every value of program on inputs: inputs first, then each result."""
    _, steps, _ = program
    values = list(inputs)
    for kind, *operands in steps:
        a, b = (values[o % len(values)] if o.__class__ is int else o for o in operands)
        values.append(_OPERATIONS[kind](a, b))
    return values


# Programs in blocks, for the property test of blocks: a straight-line
# prefix, a check of some of its last values, then 2-4 blocks, each a run
# of steps with one comparison among them that leaves the block. A block
# reads the inputs and the prefix's values and its own, and returns its
# index and its last two values; with every block left, the program
# returns (-1, ()). A block may end in 0.0 + x * 0.0, for an earlier value
# x, which its comparison then holds against 1.0 or -1.0: the fold to 0.0,
# exact only where x is finite, steers the comparison.
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq, "!=": operator.ne}
_STEPS = st.lists(st.tuples(st.sampled_from(sorted(_OPERATIONS)), _OPERAND, _OPERAND),
                  min_size=1, max_size=6)
_BLOCKED = st.tuples(
    st.integers(1, 3),
    _STEPS,
    st.lists(st.booleans(), min_size=1, max_size=3),
    st.lists(st.tuples(_STEPS, st.integers(0, 40), st.sampled_from(sorted(_COMPARE)),
                       st.integers(0, 40), st.integers(0, 6),
                       st.one_of(st.none(), st.tuples(st.integers(0, 40), st.sampled_from((1.0, -1.0))))),
             min_size=2, max_size=4),
)


def _steps(steps, values):
    for kind, *operands in steps:
        a, b = (values[o % len(values)] if o.__class__ is int else o for o in operands)
        values.append(_OPERATIONS[kind](a, b))
    return values


def _block_steps(block):
    """A block's steps, its comparison's operands (indices, or a constant on
    the right) and the step before which the comparison runs."""
    steps, i, _, j, at, zero = block
    if zero is None:
        return steps, i, j, at % (len(steps) + 1)
    x, c = zero
    return [*steps, ("*", x, 0.0), ("+", 0.0, -1)], -1, c, len(steps) + 2


def _run_blocked(program, inputs, trace=None):
    """A blocked program on floats: (the block taken, its values), or None
    where the check fails. On traced inputs, it records the program on
    trace instead, with "return None" to decline."""
    _, prefix, checks, blocks = program
    base = _steps(prefix, list(inputs))
    checked = [v for v, check in zip(base[-len(checks):], checks) if check]
    if trace is not None:
        trace.line(f"if not ({trace.check(checked)}): return None")
    elif not all(map(math.isfinite, checked)):
        return None
    for index, block in enumerate(blocks):
        steps, i, j, at = _block_steps(block)
        if trace is not None:
            trace.block("while True:", "return None")
        values, left = list(base), False
        for k in range(len(steps) + 1):
            right = values[j % len(values)] if j.__class__ is int else j
            if k == at and _COMPARE[block[2]](values[i % len(values)], right):
                left = True
                break
            values = _steps(steps[k:k + 1], values)
        outputs = tuple(values[-2:])
        if trace is not None:
            trace.end_block(None if left else [f"return ({index}, {trace.operand(outputs)})"])
        elif not left:
            return index, outputs
    return -1, ()


class TestSimplification:
    """The trace's simplification keeps every result bit for bit, or the
    simplified function declines where the evaluation's checks fail."""

    @settings(max_examples=400, deadline=None)
    @given(_PROGRAM, st.lists(st.lists(st.sampled_from(_SPECIAL), min_size=3, max_size=3),
                              min_size=1, max_size=12))
    def test_same_bits_or_decline(self, program, cases):
        n_inputs, _, checks = program
        start = (1.5, -2.5, 3.0)[:n_inputs]
        try:
            everything = _run(program, start)
        except ZeroDivisionError:
            return
        trace = _Trace()
        traced = _run(program, trace.inputs(start))
        outputs = traced[-len(checks):]
        checked = [v for v, check in zip(outputs, checks) if check]
        tail = [f"if {trace.check(checked)}: return {trace.operand(tuple(outputs))}",
                "raise _Deopt"]
        function = trace.function(tail, declines=True)
        # Where every value is finite, no check can fail.
        if all(map(math.isfinite, everything)):
            assert function(start) is not None
        for case in cases:
            inputs = tuple(case[:n_inputs])
            got = function(inputs)
            if got is None:
                continue
            want = _run(program, inputs)[-len(checks):]
            assert all(math.isfinite(v) for v, check in zip(want, checks) if check)
            assert repr(got) == repr(tuple(want)), (inputs, trace.render())

    @settings(max_examples=400, deadline=None)
    @given(_BLOCKED, st.lists(st.lists(st.sampled_from(_SPECIAL), min_size=3, max_size=3),
                              min_size=1, max_size=12))
    def test_blocks_take_the_same_block_with_the_same_bits_or_decline(self, program, cases):
        n_inputs = program[0]
        _, prefix, _, blocks = program
        drawn = [tuple(case[:n_inputs]) for case in cases]
        # Traced at the first of the start inputs and the drawn ones at which
        # the prefix divides by no zero: a division in a block is recorded
        # with a NaN result, one outside it raises.
        for start in [(1.5, -2.5, 3.0)[:n_inputs], *drawn]:
            try:
                trace = _Trace()
                _run_blocked(program, trace.inputs(start), trace)
                break
            except ZeroDivisionError:
                pass
        else:
            return
        function = trace.function(["return (-1, ())"], declines=True)
        # Where every value of the prefix and the blocks' steps is finite, no
        # check can fail.
        try:
            base = _steps(prefix, list(start))
            everything = base + [v for block in blocks for v in _steps(_block_steps(block)[0], list(base))]
        except ZeroDivisionError:
            everything = None
        if everything is not None and all(map(math.isfinite, everything)):
            assert function(start) is not None
        for inputs in drawn:
            got = function(inputs)
            if got is None:
                continue
            want = _run_blocked(program, inputs)
            assert repr(got) == repr(want), (inputs, trace.render())

    def test_a_fold_in_a_block_declines_before_it_steers_a_comparison(self):
        # 0.0 + l * 0.0 is 0.0 for finite l only. At l = inf the evaluation
        # reads nan < 1.0, stays in the first block and returns nan; with
        # the fold it would read 0.0 < 1.0 and take the second block. So the
        # fold is applied under a check of l before the comparison, which
        # declines there.
        def evaluate(x, y, trace=None):
            if trace is not None:
                trace.block("while True:", "return None")
            l = x * y
            w = 0.0 + l * 0.0
            left = w < 1.0
            if trace is not None:
                trace.end_block([f"return (0, {trace.operand(w)})"])
            elif not left:
                return 0, w
            return 1, x

        trace = _Trace()
        x, y = trace.inputs((2.0, 3.0))
        evaluate(x, y, trace)
        trace.block("while True:", "return None")
        trace.end_block([f"return (1, {trace.operand(x)})"])
        function = trace.function(["return None"], declines=True)
        lines = trace.render()
        assert not any("* 0.0" in line for line in lines), lines
        assert any("isfinite" in trace.resolve(line) for line in lines), lines
        assert function((2.0, 3.0)) == evaluate(2.0, 3.0) == (1, 2.0)
        assert repr(evaluate(1e308, 10.0)) == "(0, nan)"
        assert function((1e308, 10.0)) is None
        assert function((math.nan, 1.0)) is None

    def test_a_check_past_a_block_does_not_cover_a_fold_in_it(self):
        # x reaches a check after the blocks, which a block that returns
        # never reaches: at x = inf the folded 0.0 + x * 0.0 would take the
        # second block where the evaluation takes the first. The fold is
        # checked in the first block instead.
        trace = _Trace()
        (x,) = trace.inputs((2.0,))
        trace.block("while True:", "return None")
        w = 0.0 + x * 0.0
        assert not w < 1.0
        trace.end_block([f"return (0, {trace.operand(w)})"])
        trace.block("while True:", "return None")
        trace.end_block([f"return (1, {trace.operand(x)})"])
        function = trace.function([f"if {trace.check([x])}: return (-1, ())"], declines=True)
        assert function((2.0,)) == (1, 2.0)
        assert function((math.inf,)) is None

    @pytest.mark.parametrize("check", ["other", "none", "nothing"])
    def test_a_zero_product_folds_only_where_a_check_sees_its_factor(self, check):
        # x * 0.0 is a zero for finite x only, so 1.0 + x * 0.0 is 1.0 where
        # a non-finite x makes the function decline: x reaches the check on
        # x * y, or is added to a check that reads nothing else. With no
        # check at all, the operation is kept.
        trace = _Trace()
        x, y = trace.inputs((2.0, 3.0))
        out, other = 1.0 + x * 0.0, x * y
        test = {"other": lambda: trace.check([other]), "none": lambda: trace.check([]),
                "nothing": lambda: "True"}[check]()
        function = trace.function(
            [f"if {test}: return {trace.operand((out, other))}", "raise _Deopt"], declines=True
        )
        folded = check != "nothing"
        assert (trace.render() == ["t2 = x0 * x1"]) is folded
        assert repr(function((-0.0, 3.0))) == repr((1.0, -0.0))
        at_inf = function((math.inf, 3.0))
        assert at_inf is None if folded else math.isnan(at_inf[0])

    def test_an_unchecked_zero_factor_is_checked_through_its_operand(self):
        # Nothing reads -x0 but (-x0) * 0.0; the check takes x0, which -x0
        # cannot be non-finite without.
        # Compiled afresh, so that the trace is simplified (see
        # _Trace.generate).
        _memo.clear()
        trace = _Trace()
        (x,) = trace.inputs((2.0,))
        out = 1.0 + (-x) * 0.0
        function = trace.function([f"if {trace.check([])}: return {trace.operand(out)}"],
                                  declines=True)
        assert trace.render() == []
        assert trace.resolve("_finite0") == "isfinite(x0)"
        assert function((5.0,)) == 1.0
        assert function((math.nan,)) is None

    @pytest.mark.parametrize("form, checked, large, result", [
        (lambda x: -x, "x0", 1e308, 1.0),
        (lambda x: x * 0.5, "x0", 1e308, 1.0),
        (lambda x: x * 1e300, "t0", 1e10, None),
        (lambda x: x / 0.5, "t0", 1e308, None),
        (lambda x: x + x, "t0", 1e308, None),
    ], ids=["negated", "halved", "times 1e300", "over 0.5", "doubled"])
    def test_a_zero_factor_is_checked_through_a_bounded_step_only(self, form, checked, large,
                                                                  result):
        # Nothing reads y = form(x0) but y * 0.0. The check takes x0 where y
        # is at most |x0| in magnitude, so finite wherever x0 is, and y
        # itself where y may overflow from a finite x0: the function then
        # declines at large, where y * 0.0 is NaN.
        # Compiled afresh, so that the trace is simplified (see
        # _Trace.generate).
        _memo.clear()
        trace = _Trace()
        (x,) = trace.inputs((2.0,))
        out = 1.0 + form(x) * 0.0
        function = trace.function([f"if {trace.check([])}: return {trace.operand(out)}"],
                                  declines=True)
        assert len(trace.render()) == (checked == "t0")
        assert trace.resolve("_finite0") == f"isfinite({checked})"
        assert function((5.0,)) == 1.0
        assert function((math.nan,)) is None
        assert function((large,)) == result


class TestGeneratedSources:
    """The control step and RK4 step of the case-1 study, as traced."""

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_no_repeated_right_hand_side_and_no_product_with_one(self, mode, monkeypatch):
        recorded = []
        function = _Trace.function

        def spy(trace, *args, **kwargs):
            traced = function(trace, *args, **kwargs)
            recorded.append(trace.render())
            return traced

        config = build_study(mode, case=1, horizon=0.01, verify=False)
        d = evaluate_signal(config.disturbance, 0.0)
        # Compiled afresh, so that each trace is simplified (see
        # _Trace.generate).
        _memo.clear()
        monkeypatch.setattr(_Trace, "function", spy)
        u = control_step(config.controller, config.x0, 0.0).u
        integrate_step(config.system, config.x0, u, d, 1e-3)
        assert len(recorded) == 2
        for lines in recorded:
            # An operation is computed once within the code outside the QP's
            # blocks and within each block, not across blocks.
            regions = straight_line_regions(lines)
            assert len(operations(regions[0])) > 40
            for region in regions:
                found = operations(region)
                for node in found:
                    assert not (isinstance(node.op, (ast.Mult, ast.Div)) and literal(node.right) == 1.0
                                and isinstance(literal(node.right), float)), ast.unparse(node)
                    assert not (isinstance(node.op, ast.Mult) and literal(node.left) == 1.0
                                and isinstance(literal(node.left), float)), ast.unparse(node)
                keys = [canonical(node) for node in found]
                assert len(set(keys)) == len(keys)
