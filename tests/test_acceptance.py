"""Acceptance gate: the eleven study-level criteria, one test each.

Each test prints one pass/fail line under pytest -v. The long closed-loop
runs are shared through module-scoped fixtures: three runs for the
non-differentiable-disturbance case, two for the differentiable one, seven
for the gain/rate comparison, plus two command-line executions for
determinism.
"""

import math
import random
import time

import numpy as np
import pytest

from drcbf.acc import (
    AccParameters,
    acc_system,
    case_bound,
    case_config,
    distance_barrier,
    pole_table,
    speed_tracking_clf,
    summarize_log,
)
from drcbf.adaptive import build_adrcbf_chain
from drcbf.cli import case_document, execute_document
from drcbf.poles import coefficients_from_poles
from drcbf.qp import QpProblem, solve_qp
from drcbf.robust import (
    build_drcbf_chain,
    build_hocbf_chain,
    evaluate_with_clamping,
    membership,
    optimal_k,
)
from drcbf.simulate import run_simulation

from oracles import (
    closed_form_adaptive_terms,
    closed_form_robust_terms,
    fd_gradient,
    grid_refine_qp,
    random_feasible_qp,
    rate_crossover,
    settled_gap,
)

PARAMS = AccParameters()
SYSTEM = acc_system(PARAMS)
BARRIER = distance_barrier(PARAMS)
TABLE = pole_table(PARAMS)
GAINS = (0.1, 0.1)
RATES = (1.0, 1.0)

SAFETY_TOL = 1e-3
RUN_SECONDS_LIMIT = 5.0
GAIN_MULTIPLIERS = (0.2, 1.0, 10.0, 20.0)
# The gentle rate settles below the tuned robust gap and the harsh one above
# it; 100 lies between and shows that the knob is monotone.
GENTLE_RATE = 1.0
HARSH_RATE = 1000.0
ADAPTIVE_RATES = (GENTLE_RATE, 100.0, HARSH_RATE)
# Settled gaps of the case-3 runs agree with the steady-state oracle to about
# 0.02 m (robust) and 0.08 m (adaptive): the oracle averages the disturbance
# out and the trailing window does not.
SETTLED_GAP_TOL = 0.3


def timed_run(config):
    started = time.perf_counter()
    log = run_simulation(config)
    elapsed = time.perf_counter() - started
    return log, summarize_log(log, PARAMS), elapsed


def operating_states(count, seed):
    rng = random.Random(seed)
    return [(rng.uniform(10.5, 200.0), rng.uniform(0.0, 40.0)) for _ in range(count)]


def interior_states(chain, count, seed, margin):
    rng = random.Random(seed)
    accepted = []
    while len(accepted) < count:
        x = (rng.uniform(10.5, 200.0), rng.uniform(0.0, 40.0))
        if membership(chain, x)["min_margin"] > margin:
            accepted.append(x)
    return accepted


@pytest.fixture(scope="module")
def case1():
    return {mode: timed_run(case_config(1, mode)) for mode in ("hocbf", "drcbf", "adrcbf")}


@pytest.fixture(scope="module")
def case2():
    return {mode: timed_run(case_config(2, mode)) for mode in ("drcbf", "adrcbf")}


@pytest.fixture(scope="module")
def case3():
    robust = {
        mult: timed_run(case_config(3, "drcbf", gain_multiplier=mult))
        for mult in GAIN_MULTIPLIERS
    }
    adaptive = {
        rate: timed_run(case_config(3, "adrcbf", adaptive_rates=(rate, rate)))
        for rate in ADAPTIVE_RATES
    }
    return {"drcbf": robust, "adrcbf": adaptive}


def test_criterion_01_baseline_violates_and_robust_modes_hold(case1):
    # Safety outcomes first, so that a slow host cannot hide them.
    for mode in ("hocbf", "drcbf", "adrcbf"):
        _, summary, _ = case1[mode]
        assert not summary["failed"], summary["failure_reason"]
        assert summary["records"] == 30000
    assert case1["hocbf"][1]["min_distance"] < 10.0
    assert case1["drcbf"][1]["min_distance"] >= 10.0 - SAFETY_TOL
    assert case1["adrcbf"][1]["min_distance"] >= 10.0 - SAFETY_TOL
    times = ", ".join(f"{mode} {case1[mode][2]:.2f}s" for mode in case1)
    for mode in ("hocbf", "drcbf", "adrcbf"):
        assert case1[mode][2] <= RUN_SECONDS_LIMIT, (
            f"{mode} run exceeded {RUN_SECONDS_LIMIT:.1f}s ({times})"
        )


def test_criterion_02_differentiable_case_safe_settled_and_ordered(case2):
    for mode in ("drcbf", "adrcbf"):
        _, summary, _ = case2[mode]
        assert not summary["failed"], summary["failure_reason"]
        assert summary["min_distance"] >= 10.0 - SAFETY_TOL
        assert summary["steady"], (
            f"{mode} trailing-window drift: gap {summary['steady_gap_drift']:.3f} m,"
            f" speed {summary['steady_speed_drift']:.3f} m/s"
        )
    assert (
        case2["adrcbf"][1]["steady_state_distance"]
        <= case2["drcbf"][1]["steady_state_distance"]
    )


def test_criterion_03_gain_sweep_ordering_and_rate_knob(case3):
    for mult in GAIN_MULTIPLIERS:
        summary = case3["drcbf"][mult][1]
        assert not summary["failed"], summary["failure_reason"]
        assert summary["min_distance"] >= 10.0 - SAFETY_TOL
    for rate in ADAPTIVE_RATES:
        summary = case3["adrcbf"][rate][1]
        assert not summary["failed"], summary["failure_reason"]
        assert summary["min_distance"] >= 10.0 - SAFETY_TOL
    least = case3["drcbf"][1.0][1]["steady_state_distance"]
    for mult in GAIN_MULTIPLIERS:
        if mult != 1.0:
            other = case3["drcbf"][mult][1]["steady_state_distance"]
            assert least <= other + 1e-2, f"multiplier {mult}: {least} vs {other}"

    # Every settled gap sits where the steady-state oracle puts it.
    bound = case_bound(3)
    tuned = optimal_k((1.0, 1.0), bound)
    for mult in GAIN_MULTIPLIERS:
        gains = tuple(mult * k for k in tuned)
        want = settled_gap(PARAMS, gains, bound=bound)
        got = case3["drcbf"][mult][1]["steady_state_distance"]
        assert abs(got - want) <= SETTLED_GAP_TOL, f"multiplier {mult}: {got} vs oracle {want}"
    for rate in ADAPTIVE_RATES:
        want = settled_gap(PARAMS, tuned, rates=(rate, rate))
        got = case3["adrcbf"][rate][1]["steady_state_distance"]
        assert abs(got - want) <= SETTLED_GAP_TOL, f"rate {rate}: {got} vs oracle {want}"

    # The rate knob brackets the tuned robust controller: the oracle puts the
    # rate whose settled gap equals the tuned robust one between the gentle
    # and the harsh rate, and the runs order accordingly.
    crossover = rate_crossover(PARAMS, tuned, settled_gap(PARAMS, tuned, bound=bound))
    assert GENTLE_RATE < crossover < HARSH_RATE, f"oracle crossover at rate {crossover}"
    gentle = case3["adrcbf"][GENTLE_RATE][1]["steady_state_distance"]
    assert gentle <= least, f"low-rate settled gap {gentle} vs tuned robust {least}"
    harsh = case3["adrcbf"][HARSH_RATE][1]["steady_state_distance"]
    assert harsh >= least, f"high-rate settled gap {harsh} vs tuned robust {least}"
    gaps = [case3["adrcbf"][rate][1]["steady_state_distance"] for rate in ADAPTIVE_RATES]
    assert gaps == sorted(gaps) and len(set(gaps)) == len(gaps), f"settled gaps {gaps}"


def test_criterion_04_level_functions_nonnegative_on_safe_runs(case1, case2, case3):
    lows = [case1[mode][1]["min_phi"] for mode in ("drcbf", "adrcbf")]
    lows += [case2[mode][1]["min_phi"] for mode in ("drcbf", "adrcbf")]
    lows += [case3["drcbf"][mult][1]["min_phi"] for mult in GAIN_MULTIPLIERS]
    lows += [case3["adrcbf"][rate][1]["min_phi"] for rate in ADAPTIVE_RATES]
    assert min(lows) >= -1e-6


def test_criterion_05_sampled_derivatives_respect_the_cascade(case1):
    log = case1["drcbf"][0]
    h = log.metadata["control_period"]
    first_row = TABLE.row(1)
    top_row = TABLE.row(2)
    level0 = [row[0] for row in log.phi]
    level1 = [q - first_row[0] * p for p, q in zip(level0, (r[1] for r in log.phi))]
    # The top worst-case derivative at the applied input, recovered from the
    # logged constraint residual by removing the level combination.
    level2 = [
        res - top_row[0] * p - top_row[1] * q
        for res, p, q in zip(log.cbf_residuals, level0, level1)
    ]
    for lower, target in ((level0, level1), (level1, level2)):
        curvature = max(
            abs(lower[j + 1] - 2.0 * lower[j] + lower[j - 1])
            for j in range(1, len(lower) - 1)
        )
        allowance = 10.0 * curvature / (h * h) * h
        margin = min(
            (lower[j + 1] - lower[j]) / h - target[j] + allowance
            for j in range(len(lower) - 1)
        )
        assert margin >= 0.0, f"worst derivative shortfall {margin:.6f}"


def test_criterion_06_young_gap_inequality_and_equality_point():
    rng = random.Random(20260816)
    exact_hits = 0
    for i in range(10_000):
        dim = rng.randint(1, 3)
        v = [rng.uniform(-3.0, 3.0) for _ in range(dim)]
        norm = math.sqrt(sum(t * t for t in v))
        d_bound = rng.uniform(0.1, 3.0)
        k_star = norm / (2.0 * d_bound)
        if i % 2 == 0 and k_star > 1e-6:
            k = k_star
        else:
            k = rng.uniform(0.05, 3.0)
        gap = (
            sum(t * t for t in v) / (4.0 * k)
            + k * d_bound * d_bound
            - d_bound * norm
        )
        assert gap >= -1e-12
        if k == k_star:
            assert abs(gap) <= 1e-12
            exact_hits += 1
        elif abs(k - k_star) >= 1e-4:
            # Off the optimum the gap is strictly positive: it equals
            # bound^2 (k - k*)^2 / k, well above the equality tolerance here.
            assert gap > 1e-12
    assert exact_hits >= 4000


def test_criterion_07_generic_chains_match_closed_forms():
    bound = case_bound(1)
    robust = build_drcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, bound)
    worst = 0.0
    for x in operating_states(100, 20240711):
        ev = robust.evaluate(x)
        ref = closed_form_robust_terms(PARAMS, x, GAINS, bound)
        _, con, events = evaluate_with_clamping(robust, x)
        assert events == ()
        worst = max(
            worst,
            abs(ev.levels[0] - ref["levels"][0]),
            abs(ev.levels[1] - ref["levels"][1]),
            abs(ev.top_drift - ref["top_drift"]),
            abs(ev.phi[0] - ref["phi"][0]),
            abs(ev.phi[1] - ref["phi"][1]),
            abs(con.row[0] - ref["control_row"][0]),
            abs(con.offset - ref["offset"]),
        )
    adaptive = build_adrcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, RATES)
    for x in interior_states(adaptive, 100, 20240712, margin=1e-2):
        ev = adaptive.evaluate(x)
        ref = closed_form_adaptive_terms(PARAMS, x, GAINS, RATES)
        _, con, events = evaluate_with_clamping(adaptive, x)
        assert events == ()
        worst = max(
            worst,
            abs(ev.levels[0] - ref["levels"][0]),
            abs(ev.levels[1] - ref["levels"][1]),
            abs(ev.top_drift - ref["top_drift"]),
            abs(ev.phi[0] - ref["phi"][0]),
            abs(ev.phi[1] - ref["phi"][1]),
            abs(adaptive.gamma[0].value(x) - ref["gamma"][0]),
            abs(adaptive.penalty(ev.phi[-1]) - ref["gamma"][1]),
            abs(con.row[0] - ref["control_row"][0]),
            abs(con.offset - ref["offset"]),
        )
    assert worst <= 1e-9


def test_criterion_08_qp_solutions_certify_and_match_the_grid():
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        Q, c, A, b, z_int = random_feasible_qp(rng)
        problem = QpProblem(
            Q=tuple(map(tuple, Q)), c=tuple(c), A=tuple(map(tuple, A)), b=tuple(b)
        )
        sol = solve_qp(problem)
        assert sol.status == "optimal"
        z = np.asarray(sol.z)
        lam = np.asarray(sol.multipliers)
        stationarity = Q @ z + c + (A.T @ lam if len(b) else 0.0)
        assert float(np.max(np.abs(stationarity))) <= 1e-9
        if len(b):
            slack = A @ z - b
            assert float(np.max(slack)) <= 1e-9
            assert float(np.min(lam)) >= -1e-9
            assert float(np.max(np.abs(lam * slack))) <= 1e-9
        refined = grid_refine_qp(Q, c, A, b, start=z_int)
        assert refined is not None
        assert max(abs(p - q) for p, q in zip(z, refined)) <= 1e-6


def test_criterion_09_every_field_gradient_matches_finite_differences():
    clf = speed_tracking_clf(PARAMS)
    robust = build_drcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, case_bound(1))
    nominal = build_hocbf_chain(SYSTEM, BARRIER, TABLE)
    adaptive = build_adrcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, RATES)

    smooth = [("gap margin", BARRIER), ("tracking energy", clf.V)]
    smooth += [(f"robust level {i}", f) for i, f in enumerate(robust.levels)]
    smooth += [("robust top drift", robust.top_drift)]
    smooth += [(f"robust combination {i}", f) for i, f in enumerate(robust.phi)]
    smooth += [(f"nominal level {i}", f) for i, f in enumerate(nominal.levels)]
    smooth += [(f"nominal combination {i}", f) for i, f in enumerate(nominal.phi)]

    guarded = [(f"adaptive level {i}", f) for i, f in enumerate(adaptive.levels)]
    guarded += [("adaptive top drift", adaptive.top_drift)]
    guarded += [(f"adaptive combination {i}", f) for i, f in enumerate(adaptive.phi)]
    guarded += [(f"adaptive energy {i}", f) for i, f in enumerate(adaptive.gamma)]

    def check(name, field, states, rel_step):
        for x in states:
            grad = field.gradient(x)
            fd = fd_gradient(field.value, x, rel_step=rel_step)
            for a, f in zip(grad, fd):
                err = abs(a - f) / max(1.0, abs(a))
                assert err <= 1e-6, f"{name} at {x}: {a} vs {f}"

    plain_states = operating_states(100, 20240713)
    for name, field in smooth:
        check(name, field, plain_states, rel_step=1e-5)
    # The energy-bearing fields contain reciprocals, so probe well inside the
    # set and with a smaller step to keep the difference quotient accurate.
    deep_states = interior_states(adaptive, 100, 20240714, margin=1.0)
    for name, field in guarded:
        check(name, field, deep_states, rel_step=1e-7)


def test_criterion_10_pole_coefficients_exact_and_roots_recoverable():
    assert coefficients_from_poles((5.0, 10.0)).row(2) == (50.0, 15.0)
    rng = random.Random(1013)
    done = 0
    while done < 200:
        m = rng.randint(1, 4)
        poles = []
        while len(poles) < m:
            p = rng.uniform(0.5, 10.0)
            if all(abs(p - q) >= 0.1 for q in poles):
                poles.append(p)
        coeffs = coefficients_from_poles(tuple(poles)).row(m)
        monic = [1.0] + [coeffs[j] for j in range(m - 1, -1, -1)]
        roots = np.roots(monic)
        assert float(np.max(np.abs(roots.imag))) <= 1e-9
        got = sorted(float(r) for r in roots.real)
        want = sorted(-p for p in poles)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
        done += 1


def test_criterion_11_equal_seeds_reproduce_the_csv_bytes(tmp_path):
    doc = case_document(1, "drcbf", output={"plots": False})
    first = tmp_path / "first"
    second = tmp_path / "second"
    code_a, _ = execute_document(doc, out_dir=first)
    code_b, _ = execute_document(doc, out_dir=second)
    assert code_a == 0 and code_b == 0
    bytes_a = (first / "trajectory.csv").read_bytes()
    assert bytes_a == (second / "trajectory.csv").read_bytes()
    assert len(bytes_a) > 100000
