"""Dense active-set QP solver: KKT certificates, oracles, degeneracy."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drcbf import controller
from drcbf.acc import build_study
from drcbf.qp import QpProblem, QpSolution, QpValidationError, solve_qp

import oracles
from oracles import (
    brute_force_active_set,
    grid_refine_qp,
    qp_objective,
    random_feasible_qp,
    reference_solve_qp,
)


def solve(Q, c, A, b):
    return solve_qp(QpProblem(Q=tuple(map(tuple, Q)), c=tuple(c), A=tuple(map(tuple, A)), b=tuple(b)))


class TestValidation:
    def test_rejects_asymmetric_quadratic(self):
        with pytest.raises(QpValidationError):
            solve([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], [], [])

    def test_rejects_indefinite_quadratic(self):
        with pytest.raises(QpValidationError):
            solve([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], [], [])

    def test_rejects_semidefinite_quadratic(self):
        with pytest.raises(QpValidationError):
            solve([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [], [])

    def test_rejects_row_length_mismatch(self):
        with pytest.raises(QpValidationError):
            solve([[2.0]], [0.0], [[1.0, 2.0]], [1.0])

    def test_rejects_offset_count_mismatch(self):
        with pytest.raises(QpValidationError):
            solve([[2.0]], [0.0], [[1.0]], [1.0, 2.0])

    def test_accepts_numpy_data(self):
        problem = QpProblem(Q=np.eye(2), c=np.zeros(2), A=np.ones((2, 2)), b=np.ones(2))
        assert problem.A == ((1.0, 1.0), (1.0, 1.0))
        assert problem.b == (1.0, 1.0)
        assert solve_qp(problem).active_set == ()
        assert QpProblem(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0)).A == ()


class TestKnownSolutions:
    def test_inactive_bound_leaves_unconstrained_minimum(self):
        # min u^2 s.t. u >= -1: minimum at 0, nothing active.
        sol = solve([[2.0]], [0.0], [[-1.0]], [1.0])
        assert sol.status == "optimal"
        assert sol.z == pytest.approx((0.0,), abs=1e-15)
        assert sol.active_set == ()
        assert sol.multipliers == (0.0,)

    def test_active_bound_with_known_multiplier(self):
        # min u^2 s.t. u >= 1: optimum at the bound with multiplier 2.
        sol = solve([[2.0]], [0.0], [[-1.0]], [-1.0])
        assert sol.status == "optimal"
        assert sol.z == pytest.approx((1.0,), rel=1e-12)
        assert sol.active_set == (0,)
        assert sol.multipliers == pytest.approx((2.0,), rel=1e-12)
        assert sol.objective == pytest.approx(1.0, rel=1e-12)

    def test_unconstrained_newton_point(self):
        sol = solve([[2.0, 0.0], [0.0, 4.0]], [-2.0, -8.0], [], [])
        assert sol.z == pytest.approx((1.0, 2.0), rel=1e-12)
        assert sol.active_set == ()

    def test_infeasible_pair_is_reported(self):
        sol = solve([[2.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0])
        assert sol.status == "infeasible"
        assert sol.z == ()
        assert math.isinf(sol.objective)

    def test_two_active_constraints_pin_the_point(self):
        # min |z|^2 s.t. z0 >= 1, z1 >= 2 (written as <=).
        sol = solve(
            [[2.0, 0.0], [0.0, 2.0]],
            [0.0, 0.0],
            [[-1.0, 0.0], [0.0, -1.0]],
            [-1.0, -2.0],
        )
        assert sol.z == pytest.approx((1.0, 2.0), rel=1e-12)
        assert sol.active_set == (0, 1)

    def test_determinism(self):
        problem = QpProblem(
            Q=((2.0, 0.3), (0.3, 4.0)),
            c=(1.0, -2.0),
            A=((1.0, 1.0), (-1.0, 0.5)),
            b=(0.5, 0.2),
        )
        first = solve_qp(problem)
        second = solve_qp(problem)
        assert first == second


class TestFactorReuse:
    # Q is validated and factored once per distinct value; a problem that
    # differs from a solved one only in bad data must still be rejected.
    GOOD_Q = ((2.0, 0.3), (0.3, 4.0))
    C = (1.0, -2.0)
    A = ((1.0, 1.0), (-1.0, 0.5))
    B = (0.5, 0.2)

    def solve_good(self):
        sol = solve(self.GOOD_Q, self.C, self.A, self.B)
        assert sol.status == "optimal"
        return sol

    @pytest.mark.parametrize(
        "bad_q",
        [
            ((2.0, 0.3), (0.0, 4.0)),  # asymmetric
            ((2.0, 0.3), (0.3, -4.0)),  # indefinite
            ((1.0, 1.0), (1.0, 1.0)),  # semidefinite
        ],
    )
    def test_invalid_quadratic_of_a_solved_shape_is_rejected(self, bad_q):
        first = self.solve_good()
        with pytest.raises(QpValidationError):
            solve(bad_q, self.C, self.A, self.B)
        assert self.solve_good() == first

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_with_a_solved_quadratic_is_rejected(self, bad):
        self.solve_good()
        with pytest.raises(QpValidationError):
            solve(self.GOOD_Q, self.C, ((bad, 1.0), self.A[1]), self.B)
        with pytest.raises(QpValidationError):
            solve(self.GOOD_Q, self.C, self.A, (self.B[0], bad))
        with pytest.raises(QpValidationError):
            solve(self.GOOD_Q, (bad, 0.0), self.A, self.B)


def assert_same_as_reference(problem):
    # == on the whole solution, and repr to tell -0.0 from 0.0.
    got, expected = solve_qp(problem), reference_solve_qp(problem)
    assert got == expected
    assert repr(got) == repr(expected)
    return got


# The controller's quadratic over (u, slack) in the ACC study: 4/m^2 on the
# thrust (m = 1650 kg), twice the slack weight on the slack. Its two scales
# differ by six decades.
CONTROLLER_Q = ((4.0 / 1650.0**2, 0.0), (0.0, 4.0))


class TestGeneratedKernel:
    """solve_qp runs the enumeration on the problem's plain floats, with no
    generated kernel (the name is kept so that the test ids stay stable);
    for problems of every (rows, dim) shape it must return exactly what the
    reference loop returns."""

    def test_a_new_shape_compiles_no_code(self, monkeypatch):
        from drcbf import _trace, qp

        def refused(*args):
            raise AssertionError("solve_qp compiled code")

        for module in (_trace, qp):
            monkeypatch.setattr(module, "exec", refused, raising=False)
        problem = QpProblem(Q=np.eye(5), c=np.ones(5), A=-np.eye(5), b=-np.ones(5))
        assert assert_same_as_reference(problem).active_set == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_con", [0, 1, 2, 3, 4])
    def test_random_problems_of_every_shape(self, n_con, dim):
        rng = np.random.default_rng(1000 * n_con + dim)
        statuses = set()
        for _ in range(300):
            M = rng.normal(size=(dim, dim))
            Q = M @ M.T + 0.1 * np.eye(dim)
            A = rng.normal(size=(n_con, dim))
            problem = QpProblem(Q=Q, c=3.0 * rng.normal(size=dim), A=A, b=rng.normal(size=n_con))
            statuses.add(assert_same_as_reference(problem).status)
        assert "optimal" in statuses

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dependent_rows_are_skipped_alike(self, dim):
        # Repeated, zero and scaled-duplicate rows make the LDL' pivot of
        # some active sets vanish to rounding (the RANK_TOL skip).
        rng = np.random.default_rng(dim)
        for _ in range(200):
            M = rng.normal(size=(dim, dim))
            Q = M @ M.T + 0.1 * np.eye(dim)
            row = rng.normal(size=dim)
            other = rng.normal(size=dim)
            scale = rng.choice([1.0, 3.0, -2.0, 1e-8])
            A = np.array([row, scale * row, np.zeros(dim), other, row])
            b = rng.normal(size=5)
            problem = QpProblem(Q=Q, c=3.0 * rng.normal(size=dim), A=A, b=b)
            active = set(assert_same_as_reference(problem).active_set)
            # Rows 0, 1 and 4 are parallel and row 2 is zero: no certificate
            # holds two of the former or the latter.
            assert 2 not in active and len(active & {0, 1, 4}) <= 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_infeasible_pairs(self, dim):
        rng = np.random.default_rng(10 + dim)
        for _ in range(100):
            row = rng.normal(size=dim)
            margin = rng.uniform(0.1, 2.0)
            offset = rng.normal()
            A = np.array([row, -row, rng.normal(size=dim)])
            b = np.array([offset, -offset - margin, 5.0])
            problem = QpProblem(Q=np.eye(dim), c=rng.normal(size=dim), A=A, b=b)
            assert assert_same_as_reference(problem).status == "infeasible"

    def test_controller_scaled_quadratic(self):
        # The controller's rows: the slacked stability row, then the safety
        # row, which acts on the thrust alone.
        rng = np.random.default_rng(5)
        active = set()
        for _ in range(2000):
            stability = (rng.uniform(-1e-2, 1e-2), -1.0)
            safety = (rng.uniform(1e-4, 0.05), 0.0)
            b = (rng.uniform(-5.0, 5.0), rng.uniform(-40.0, 400.0))
            c = (-rng.uniform(0.0, 1e-3), 0.0)
            problem = QpProblem(Q=CONTROLLER_Q, c=c, A=(stability, safety), b=b)
            active.add(assert_same_as_reference(problem).active_set)
        assert {(), (0,), (1,), (0, 1)} <= active

    @pytest.mark.parametrize("mode", ["drcbf", "adrcbf"])
    def test_every_qp_of_a_study_run(self, mode, monkeypatch):
        # 7 s of case 3 pass through the sets (0,), () and, once settled
        # (from ~5.9 s), the binding (0, 1) with its refinement step. The
        # compiled control step and run_simulation's generated loop run the
        # enumeration inline, so every step of the reference loop is also
        # taken by the generic step, whose QP is checked against the
        # reference, and the two results must agree; the generated loop
        # must give the reference loop's log.
        log = oracles.assert_same_run(build_study(mode, case=3, horizon=7.0, verify=False))
        assert log.metadata["fallback_steps"] == 0
        active = set()

        def checked_solve(problem):
            solution = assert_same_as_reference(problem)
            active.add(solution.active_set)
            return solution

        def checked_step(spec, x, t):
            result = controller.control_step(spec, x, t)
            expected = controller._generic_control_step(spec, x, t)
            assert result == expected
            assert repr(result) == repr(expected)
            return result

        monkeypatch.setattr(controller, "solve_qp", checked_solve)
        monkeypatch.setattr(oracles, "control_step", checked_step)
        log = oracles.reference_run(build_study(mode, case=3, horizon=7.0, verify=False))
        assert not log.failed
        assert len(log) == 7000
        assert active == {(), (0,), (0, 1)}
        assert set(log.active_sets) == active

    def test_nearly_parallel_rows_above_the_rank_tolerance(self):
        # The rows differ by 1e-6 in angle: the relative LDL' pivot of the
        # pair is ~1e-12, above RANK_TOL, so the pair is the certificate.
        # The minimizer z = (1, 5) has multipliers (1e4, 1e4): either row
        # alone leaves the other violated by ~1e-8, past the tolerance.
        eps = 1e-6
        problem = QpProblem(
            Q=((1.0, 0.0), (0.0, 1.0)),
            c=(-20001.0, -5.01),
            A=((1.0, 0.0), (1.0, eps)),
            b=(1.0, 1.0 + 5.0 * eps),
        )
        solution = assert_same_as_reference(problem)
        assert solution.active_set == (0, 1)
        assert solution.multipliers == pytest.approx((1e4, 1e4), rel=1e-6)

    def test_a_nan_first_multiplier_passes_the_sign_check(self):
        # min scans left to right: min(nan, x) is nan, which passes the sign
        # check, where min(x, nan) is x. The pair's first multiplier here is
        # inf - inf (its pivot is 1e-320, so e0 / d0 and m * l1 overflow),
        # and its second is -1e155: the sets before it fail, and the pair is
        # accepted with NaN z, as the reference accepts it.
        problem = QpProblem(Q=((1.0, 0.0), (0.0, 1.0)), c=(0.0, 0.0),
                            A=((1e-160, 0.0), (-1.0, 1.0)), b=(-1e-5, 2e155))
        got = solve_qp(problem)
        assert repr(got) == repr(reference_solve_qp(problem))
        assert got.active_set == (0, 1)

    def test_signed_zeros(self):
        # Signed zeros in the data come out as the reference's, sign included.
        problem = QpProblem(Q=((2.0, 0.0), (0.0, 2.0)), c=(-0.0, 0.0), A=((-0.0, 1.0),), b=(0.0,))
        assert_same_as_reference(problem)
        problem = QpProblem(Q=((2.0,),), c=(-0.0,), A=((1.0,), (-1.0,)), b=(-0.0, 0.0))
        assert_same_as_reference(problem)


class TestAgainstOracles:
    def test_kkt_certificate_on_random_instances(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            Q, c, A, b, _ = random_feasible_qp(rng)
            sol = solve(Q, c, A, b)
            assert sol.status == "optimal"
            z = np.asarray(sol.z)
            lam = np.asarray(sol.multipliers)
            scale = max(1.0, float(np.abs(Q).max()), float(np.abs(c).max()))
            stationarity = Q @ z + c
            if len(b):
                stationarity = stationarity + np.asarray(A).T @ lam
                slackness = np.asarray(A) @ z - np.asarray(b)
                assert np.all(slackness <= 1e-9 * scale)
                assert np.all(np.abs(lam * slackness) <= 1e-7 * scale)
                assert np.all(lam >= -1e-9)
            assert np.max(np.abs(stationarity)) <= 1e-9 * scale

    def test_matches_full_enumeration(self):
        # The early-exit solver must land on the same optimum as a scan of
        # every active set (sound because the quadratic form is definite).
        rng = np.random.default_rng(77)
        for _ in range(200):
            Q, c, A, b, _ = random_feasible_qp(rng)
            sol = solve(Q, c, A, b)
            _, best_val = brute_force_active_set(Q, c, A, b)
            assert sol.objective == pytest.approx(best_val, rel=1e-8, abs=1e-8)

    def test_matches_grid_refinement(self):
        rng = np.random.default_rng(4242)
        for _ in range(25):
            Q, c, A, b, z_int = random_feasible_qp(rng, dim=2)
            sol = solve(Q, c, A, b)
            grid = grid_refine_qp(Q, c, A, b, start=z_int)
            assert grid is not None
            assert np.allclose(sol.z, grid, atol=1e-6)


class TestSlackWeightMonotonicity:
    @given(
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_heavier_penalty_never_increases_slack(self, base_weight, offset, row_u):
        # Tracking-style structure over (u, slack): hard row plus slacked row.
        def solve_with(weight):
            sol = solve(
                [[2.0, 0.0], [0.0, 2.0 * weight]],
                [0.5, 0.0],
                [[row_u, -1.0]],
                [offset],
            )
            assert sol.status == "optimal"
            return abs(sol.z[1])

        lighter = solve_with(base_weight)
        heavier = solve_with(base_weight * 4.0)
        assert heavier <= lighter + 1e-9
