"""The worst bounded disturbance on ACC: a constant of the bound's norm.

Every cascade level's L_h is a constant vector on ACC (see
oracles.closed_form_robust_terms), so the disturbance that pushes a level
hardest is a constant d = D (cos theta, sin theta) of norm D in a fixed
direction. The sweep runs 20 s under such a d with D = case_bound(1), for
theta = k pi / 4, k = 0 ... 7:

- drcbf built with the bound D never crosses the floor (the abstract's
  guarantee under a bounded disturbance);
- drcbf built with 0.5 D crosses for some theta, so the sweep is sharp
  enough to see an understated bound;
- hocbf, which ignores the disturbance, crosses for some theta.

adrcbf is left out: its theta = pi run breaches the energy guard and aborts
(see test_simulate's test_adrcbf_guard_breach_under_the_worst_constant_disturbance).
"""

import math

import pytest

from drcbf.acc import AccParameters, build_study, case_bound, summarize_log
from drcbf.disturbances import Constant, SignalSpec
from drcbf.simulate import run_simulation

PARAMS = AccParameters()
BOUND = case_bound(1)
ANGLES = tuple(k * math.pi / 4 for k in range(8))
HORIZON = 20.0


def min_margins(mode, assumed_bound):
    """Minimum gap above the floor of each angle's run, by angle index."""
    margins = []
    for theta in ANGLES:
        signal = SignalSpec(channels=(
            (Constant(BOUND * math.cos(theta)),),
            (Constant(BOUND * math.sin(theta)),),
        ))
        config = build_study(mode, disturbance_spec=signal, disturbance_bound=assumed_bound,
                             horizon=HORIZON, verify=False)
        log = run_simulation(config)
        assert not log.failed, (mode, assumed_bound, theta, log.failure_reason)
        margins.append(summarize_log(log, PARAMS)["min_margin"])
    return margins


def test_drcbf_with_the_bound_never_crosses_the_floor():
    margins = min_margins("drcbf", BOUND)
    assert min(margins) > 0.0, margins
    # The closest approach is at theta = pi, d = (-D, 0).
    assert margins.index(min(margins)) == 4
    assert min(margins) == pytest.approx(0.230, abs=5e-3)


def test_drcbf_with_half_the_bound_crosses_for_some_direction():
    margins = min_margins("drcbf", 0.5 * BOUND)
    assert sum(m < 0.0 for m in margins) == 3, margins
    assert min(margins) == pytest.approx(-0.856, abs=5e-3)


def test_hocbf_crosses_for_some_direction():
    margins = min_margins("hocbf", BOUND)
    assert sum(m < 0.0 for m in margins) == 4, margins
    assert min(margins) == pytest.approx(-2.018, abs=5e-3)
