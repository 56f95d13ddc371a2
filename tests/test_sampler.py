import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrogate_langevin.config import ConfigValidationError, ExperimentConfig
from surrogate_langevin.sampler import (NOISE_BLOCK, ChainDivergedError, ChainTrace,
                                        ConfigurationStepError, SamplerConfig,
                                        burn_in_steps, discretization_bias,
                                        precision_floor, run_chain,
                                        step_size_bound, _step)

from _oracles import run_chain_per_step


# -- the ULA step ------------------------------------------------------------


def ula_step(drift, state, gamma, noise):
    """state + gamma * drift(state) + sqrt(2 gamma) * noise, by the one step
    formula run_chain uses."""
    return _step(drift, state, gamma, math.sqrt(2.0 * gamma) * noise)[0]


def test_ula_step_fixed_point():
    state = np.array([1.0, -2.0])
    out = ula_step(lambda s: np.zeros(2), state, 0.05, np.zeros(2))
    np.testing.assert_array_equal(out, state)


def test_ula_step_substitution():
    state = np.array([1.0, 0.0])
    out = ula_step(lambda s: np.array([-1.0, 0.0]), state, 0.01,
                   np.array([0.5, -0.5]))
    np.testing.assert_allclose(out, [0.99 + math.sqrt(0.02) * 0.5,
                                     math.sqrt(0.02) * (-0.5)], rtol=1e-15)


def test_ula_step_nonfinite_drift_raises():
    with pytest.raises(FloatingPointError):
        ula_step(lambda s: np.array([np.nan]), np.array([0.0]), 0.01,
                 np.array([0.0]))


@settings(max_examples=200)
@given(d=st.lists(st.floats(allow_nan=True, allow_infinity=True)
                  | st.sampled_from([1e160, -1e200, 1.7e308, np.nan, np.inf]),
                  min_size=1, max_size=5),
       gamma=st.floats(1e-6, 1.0))
def test_ula_step_rejects_exactly_the_nonfinite_drifts(d, gamma):
    # the drift is tested through d.d first; a finite drift whose squares
    # overflow must still pass, and any NaN or inf entry must still raise
    d = np.array(d)
    state, noise = np.ones(d.size), np.full(d.size, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(d).all():
            out = ula_step(lambda s: d, state, gamma, noise)
            ref = state + gamma * d + math.sqrt(2.0 * gamma) * noise
            assert out.tobytes() == ref.tobytes()
        else:
            with pytest.raises(FloatingPointError):
                ula_step(lambda s: d, state, gamma, noise)


def test_ula_stationary_variance_ar1():
    # drift -x: the chain is AR(1) with exact stationary variance 1/(1 - g/2)
    gamma = 0.01
    rng = np.random.default_rng(7)
    n = 1_000_000
    x = np.empty(n)
    s = 0.0
    c = math.sqrt(2 * gamma)
    noise = rng.standard_normal(n)
    for k in range(n):
        s = (1.0 - gamma) * s + c * noise[k]
        x[k] = s
    target = 1.0 / (1.0 - gamma / 2.0)
    assert abs(np.var(x[1000:]) - target) <= 0.02 * target


# -- config validation ---------------------------------------------------------

def test_config_rejections():
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(variant="hmc").validate()
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            SamplerConfig(gamma=gamma)
    for radius in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="guard_radius"):
            SamplerConfig(guard="reflect", guard_radius=radius)
    with pytest.raises(ValueError):
        SamplerConfig(j=0)
    with pytest.raises(ValueError):
        SamplerConfig(j_in=-1)
    with pytest.raises(ValueError):
        SamplerConfig(guard="bounce")


# -- run_chain -----------------------------------------------------------------

def test_constant_functional_average():
    cfg = SamplerConfig(gamma=0.01, j_in=5, j=40, seed=1)
    trace = run_chain(lambda s: -s, np.zeros(2), cfg,
                      functionals={"three": lambda S: np.full(len(S), 3.0)})
    assert trace.ergodic_average("three") == pytest.approx(3.0, rel=1e-14)


def test_unregistered_functional_raises():
    cfg = SamplerConfig(gamma=0.01, j=5)
    trace = run_chain(lambda s: -s, np.zeros(1), cfg)
    with pytest.raises(KeyError):
        trace.ergodic_average("missing")


def test_ergodic_average_hand_trace():
    # j_in=1, j=2: the average is (state_2 + state_3) / 2, recomputed by hand
    cfg = SamplerConfig(gamma=0.04, j_in=1, j=2, seed=3)
    trace = run_chain(lambda s: -2.0 * s, np.array([1.0]), cfg,
                      functionals={"id": lambda S: S[:, 0]})
    rng = np.random.default_rng(3)
    s = np.array([1.0])
    states = []
    for _ in range(3):
        s = s + 0.04 * (-2.0 * s) + math.sqrt(0.08) * rng.standard_normal(1)
        states.append(s[0])
    assert trace.ergodic_average("id") == pytest.approx(
        (states[1] + states[2]) / 2.0, rel=1e-14)
    np.testing.assert_allclose(trace.final_state, [states[2]], rtol=1e-14)


def test_functional_linearity():
    cfg = SamplerConfig(gamma=0.01, j_in=10, j=100, seed=5)
    fns = {"a": lambda S: S[:, 0], "b": lambda S: 2.0 * S[:, 0] + 1.0}
    trace = run_chain(lambda s: -s, np.zeros(1), cfg, functionals=fns)
    assert trace.ergodic_average("b") == pytest.approx(
        2.0 * trace.ergodic_average("a") + 1.0, abs=1e-12)


def test_seed_determinism_bitwise():
    cfg = SamplerConfig(gamma=0.02, j_in=3, j=50, seed=11)
    t1 = run_chain(lambda s: -s, np.ones(3), cfg)
    t2 = run_chain(lambda s: -s, np.ones(3), cfg)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.final_state, t2.final_state)


def test_conjugate_gaussian_mean():
    # constant-design gaussian GLM, prior N(0, s0^2):
    # posterior mean m* = s0^2 * sum(y) / (1 + n s0^2)
    rng = np.random.default_rng(13)
    n, s0sq = 200, 0.5
    y = rng.standard_normal(n) + 0.7
    m_star = s0sq * y.sum() / (1.0 + n * s0sq)
    var_post = s0sq / (1.0 + n * s0sq)

    def drift(theta):
        return np.array([y.sum() - n * theta[0] - theta[0] / s0sq])

    m_total = n + 1.0 / s0sq
    gamma = 0.5 / m_total
    j = 200_000
    cfg = SamplerConfig(gamma=gamma, j_in=2000, j=j, seed=17)
    trace = run_chain(drift, np.zeros(1), cfg, functionals={"id": lambda S: S[:, 0]})
    mcse = math.sqrt(var_post * (2.0 / (m_total * gamma)) / j)
    assert abs(trace.ergodic_average("id") - m_star) <= 3.0 * mcse


def test_exit_recorded_for_tiny_region():
    # region radius far below the per-step noise scale: exits fast, chain continues
    exited_fast = 0
    for seed in range(100):
        cfg = SamplerConfig(gamma=0.01, j_in=0, j=100, seed=seed)
        trace = run_chain(lambda s: -s, np.zeros(2), cfg,
                          region_center=np.zeros(2), region_radius=1e-4)
        if trace.exit_step is not None and trace.exit_step <= 100:
            exited_fast += 1
        assert trace.states.shape[0] == 101  # chain ran to completion regardless
    assert exited_fast >= 95


def test_no_exit_for_huge_region():
    cfg = SamplerConfig(gamma=0.01, j_in=0, j=500, seed=19)
    trace = run_chain(lambda s: -s, np.zeros(2), cfg,
                      region_center=np.zeros(2), region_radius=100.0)
    assert trace.exit_step is None


def test_exit_step_at_least_one():
    cfg = SamplerConfig(gamma=0.01, j=50, seed=21)
    trace = run_chain(lambda s: -s, np.zeros(1), cfg,
                      region_center=np.zeros(1), region_radius=1e-12)
    assert trace.exit_step is not None and trace.exit_step >= 1


def test_guard_none_aborts_on_nonfinite_drift():
    def drift(s):
        return np.array([np.inf]) if abs(s[0]) > 1.0 else -s

    cfg = SamplerConfig(gamma=0.5, j=1000, seed=23, guard="none")
    with pytest.raises(ChainDivergedError) as exc:
        run_chain(drift, np.zeros(1), cfg)
    assert exc.value.step >= 1
    assert np.all(np.isfinite(exc.value.last_state))


def test_guard_reflect_keeps_chain_bounded():
    cfg = SamplerConfig(gamma=0.01, j=5000, seed=29, guard="reflect",
                        guard_radius=2.0)
    trace = run_chain(lambda s: s, np.zeros(2), cfg)  # expansive drift
    norms = np.linalg.norm(trace.states, axis=1)
    assert np.all(norms <= 2.0 + 1e-9)
    assert trace.guard_trigger_count > 0


def test_guard_reflect_retry_keeps_interior_state():
    # one non-finite drift at an interior state: the retry must not push the
    # state out to the guard radius
    calls = []

    def drift(s):
        calls.append(1)
        return np.array([np.nan, np.nan]) if len(calls) == 1 else -s

    cfg = SamplerConfig(gamma=1e-4, j=1, seed=0, guard="reflect", guard_radius=5.0)
    trace = run_chain(drift, np.array([0.01, 0.0]), cfg)
    assert trace.guard_trigger_count == 1
    assert np.linalg.norm(trace.final_state) < 0.1


def test_guard_reflect_folds_a_state_whose_square_overflows():
    # theta.theta of the state [1e160, 0] overflows, its norm does not
    cfg = SamplerConfig(gamma=1.0, j=5, seed=0, guard="reflect", guard_radius=2.0)
    with np.errstate(over="ignore"):
        trace = run_chain(lambda s: np.array([1e160, 0.0]), np.zeros(2), cfg)
    assert trace.guard_trigger_count == 5
    assert np.all(np.linalg.norm(trace.states, axis=1) <= 2.0 * (1.0 + 1e-12))


@settings(max_examples=200)
@given(scale=st.floats(-1e12, 1e12) | st.sampled_from([1e300, -1e300]),
       offset=st.floats(allow_nan=True, allow_infinity=True)
       | st.sampled_from([1e160, -1e200, 1e300]),
       bad_norm=st.floats(0.0, 20.0) | st.none(),
       radius=st.floats(0.1, 10.0), gamma=st.floats(1e-4, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_guard_reflect_never_leaves_the_ball(scale, offset, bad_norm, radius,
                                             gamma, seed):
    # any drift: linear, huge, or non-finite beyond some norm or everywhere;
    # an offset of 1e160 or more sends the state where theta.theta overflows
    def drift(s):
        if bad_norm is not None and np.linalg.norm(s) > bad_norm:
            return np.full_like(s, np.inf)
        return scale * s + offset

    cfg = SamplerConfig(gamma=gamma, j=40, seed=seed, guard="reflect",
                        guard_radius=radius)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            trace = run_chain(drift, np.zeros(2), cfg)
        except ChainDivergedError:
            # only a drift that is not finite on the ball can end the chain:
            # |drift| <= 1e300 (1 + R) + |offset| stays finite otherwise
            assert bad_norm is not None or not abs(offset) <= 1e300
            return
    bound = radius * (1.0 + 1e-12)  # the rescaled state's norm is R up to rounding
    assert np.all(np.linalg.norm(trace.states, axis=1) <= bound)
    assert np.linalg.norm(trace.final_state) <= bound


def test_thinning_under_storage_budget():
    cfg = SamplerConfig(gamma=0.01, j_in=0, j=1000, seed=31)
    trace = run_chain(lambda s: -s, np.zeros(4), cfg, storage_budget=200)
    assert trace.stride > 1
    assert trace.states.shape[0] * 4 <= 200 + 4
    # thinned states are the states at multiples of the stride
    full = run_chain(lambda s: -s, np.zeros(4), cfg)
    np.testing.assert_array_equal(trace.states,
                                  full.states[::trace.stride])


def test_post_burn_in_states_window():
    cfg = SamplerConfig(gamma=0.01, j_in=10, j=20, seed=37)
    trace = run_chain(lambda s: -s, np.zeros(1), cfg)
    post = trace.post_burn_in_states()
    assert post.shape[0] == 20
    np.testing.assert_array_equal(post, trace.states[11:])


B = NOISE_BLOCK


def _assert_matches_per_step(drift, theta_init, cfg, fns, center, radius,
                             budget=10_000_000):
    """run_chain gives the bits of run_chain_per_step: the same states, final
    state, exit step, guard count and accumulators, or the same divergence.
    Returns the trace, or the ChainDivergedError."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref = run_chain_per_step(drift, theta_init, cfg, fns, center, radius, budget)
        try:
            trace = run_chain(drift, theta_init, cfg, functionals=fns,
                              region_center=center, region_radius=radius,
                              storage_budget=budget)
        except ChainDivergedError as exc:
            assert ref[0] == "diverged"
            assert exc.step == ref[1]
            assert exc.last_state.tobytes() == np.asarray(ref[2]).tobytes()
            return exc
    states, stride, exit_step, acc, guards, final = ref
    assert trace.stride == stride
    assert trace.states.shape == states.shape
    assert trace.states.tobytes() == states.tobytes()
    assert trace.final_state.tobytes() == final.tobytes()
    assert trace.exit_step == exit_step
    assert trace.guard_trigger_count == guards
    for name in fns:
        assert np.asarray(trace.accumulators[name]).tobytes() == np.asarray(acc[name]).tobytes()
    return trace


@pytest.mark.parametrize("total", [1, B - 1, B, B + 1, 2 * B + 1])
@settings(max_examples=15)
@given(burn_frac=st.floats(0.0, 1.0), p=st.integers(1, 3),
       guard=st.sampled_from(["none", "reflect"]),
       budget=st.sampled_from([10_000_000, 40, 700]),
       scale=st.floats(-3.0, 3.0), offset=st.sampled_from([0.3, 1e160, 1e308]),
       bad_norm=st.floats(0.5, 5.0) | st.none(), seed=st.integers(0, 2 ** 16))
def test_block_noise_matches_per_step_draws(total, burn_frac, p, guard, budget,
                                            scale, offset, bad_norm, seed):
    # linear drift that may expand (reflect guard triggers, or the chain
    # diverges), may turn non-finite beyond a norm (the retry path), with
    # offset 1e160 stays finite while its square and the state's overflow, and
    # with offset 1e308 overflows the state while the drift stays finite
    def drift(s):
        if bad_norm is not None and np.linalg.norm(s) > bad_norm:
            return np.full_like(s, np.nan)
        return scale * s + offset

    j_in = min(int(burn_frac * total), total - 1)
    cfg = SamplerConfig(gamma=0.05, j_in=j_in, j=total - j_in, seed=seed,
                        guard=guard, guard_radius=2.0)
    fns = {"id": lambda S: S, "sq": lambda S: (S * S).sum(axis=1)}
    trace = _assert_matches_per_step(drift, np.zeros(p), cfg, fns, np.full(p, 0.1), 0.5,
                                     budget)
    if isinstance(trace, ChainTrace) and budget < 10_000_000 and total > 1:
        assert trace.stride > 1


def _exact_distances(states, center):
    """math.sqrt(d.dot(d)) for d = state - center, as run_chain tests the exit."""
    return [math.sqrt((s - center).dot(s - center)) for s in states]


@settings(max_examples=25)
@given(p=st.integers(1, 40), ulps=st.integers(-4, 4), later=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_exit_within_ulps_of_the_radius(p, ulps, later, seed):
    # The radius is a few ulps off the largest distance up to step k, where
    # the block's einsum screen and the exact ddot test may round differently;
    # a steady push makes the distance grow, so with later=True the exit falls
    # in the second block.
    cfg = SamplerConfig(gamma=0.05, j_in=B // 2 + 3, j=2 * B, seed=seed)
    push = np.linspace(5.0, 25.0, p)
    center = np.full(p, 0.05)
    states = run_chain_per_step(lambda s: push, np.zeros(p), cfg, {}, None, None,
                                10_000_000)[0]
    k = B + 100 if later else 100
    radius = max(_exact_distances(states[1:k + 1], center))
    for _ in range(abs(ulps)):
        radius = np.nextafter(radius, -np.inf if ulps < 0 else np.inf)
    fns = {"id": lambda S: S}
    trace = _assert_matches_per_step(lambda s: push, np.zeros(p), cfg, fns, center,
                                     float(radius))
    if ulps < 0:
        assert trace.exit_step is not None and trace.exit_step <= k
        assert (trace.exit_step > B) is later
    else:
        assert trace.exit_step is None or trace.exit_step > k


@settings(max_examples=15)
@given(p=st.integers(1, 4), cross=st.integers(B + 50, 2 * B - 50),
       seed=st.integers(0, 2 ** 16))
def test_divergence_mid_block_reports_the_last_stored_state(p, cross, seed):
    # the drift turns huge once the state's sum passes about `cross` steps of
    # its push (the noise moves that step by a few), which overflows the state
    # a step later; states are thinned, so last_state is the last stored
    # state, not the previous step's
    def drift(s):
        return np.full(p, 1e308) if s.sum() > 10.0 * p * cross else np.full(p, 10.0)

    cfg = SamplerConfig(gamma=1.0, j_in=B + 7, j=2 * B, seed=seed)
    fns = {"id": lambda S: S}
    exc = _assert_matches_per_step(drift, np.zeros(p), cfg, fns, np.zeros(p), 1e9,
                                   budget=50 * p)
    assert isinstance(exc, ChainDivergedError)
    assert B < exc.step < 2 * B


@pytest.mark.parametrize("j_in", [0, 5, B - 1, B + 5, 2 * B + 17])
def test_scalar_functionals_add_in_step_order_at_p1(j_in):
    # at p = 1 a pairwise sum (np.add.reduce) of the window differs from the
    # per-step sum; the accumulators must keep the per-step bits
    cfg = SamplerConfig(gamma=0.05, j_in=j_in, j=3 * B + 11, seed=j_in)
    fns = {"id": lambda S: S, "x": lambda S: S[:, 0], "tenth": lambda S: np.full(len(S), 0.1),
           "sq": lambda S: S[:, 0] ** 2}
    trace = _assert_matches_per_step(lambda s: -s, np.array([0.3]), cfg, fns,
                                     np.zeros(1), 0.5)
    window = trace.states[j_in + 1:, 0]
    total = 0.0
    for x in window:
        total += x
    assert trace.accumulators["x"] == total


def test_functional_must_return_one_row_per_state():
    cfg = SamplerConfig(gamma=0.05, j=10)
    with pytest.raises(ValueError, match="one row per state"):
        run_chain(lambda s: -s, np.zeros(2), cfg, functionals={"mean": lambda S: S.mean()})


# -- step size / bias / burn-in ------------------------------------------------

def test_step_size_bound_substitutions():
    a, b = step_size_bound(1.0, 1.0)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(1.0 / math.sqrt(54.0))
    assert b == pytest.approx(0.13608, abs=1e-5)
    a2, b2 = step_size_bound(2.0, 2.0)
    assert a2 == pytest.approx(0.5)
    assert b2 == pytest.approx(0.06804, abs=1e-5)


def test_step_size_bound_monotone_in_lambda():
    prev = step_size_bound(1.0, 1.0)
    for lam in (10.0, 100.0, 1000.0):
        cur = step_size_bound(1.0, lam)
        assert cur[0] < prev[0] and cur[1] < prev[1]
        prev = cur


def test_step_size_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        step_size_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        step_size_bound(1.0, -1.0)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]))
def test_step_size_bound_rejects_non_finite(bad):
    # a NaN m or lambda passed `<= 0` and gave (nan, nan)
    for m, lam in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="m and lambda must be positive"):
            step_size_bound(m, lam)


def test_discretization_bias_values():
    assert discretization_bias(0.0, 4, 1.0, 2.0) == 0.0
    assert discretization_bias(1e-3, 4, 1.0, 2.0) == pytest.approx(0.576768,
                                                                   rel=1e-12)
    ratio = (discretization_bias(2e-6, 4, 1.0, 2.0)
             / discretization_bias(1e-6, 4, 1.0, 2.0))
    assert 1.9 <= ratio <= 2.1


def test_burn_in_substitution_example():
    assert burn_in_steps(0.1, 1.0, 0.1, 1.0, 0.5, 4) == 189


def test_burn_in_constructed_ratio_one():
    # pick epsilon so the log ratio is exactly 0 -> ratio >= 1 -> 0 steps
    m, eta, lam_pi, p = 1.0, 1.0, 0.5, 4
    eps = math.sqrt(32.0 * (max(eta, lam_pi / m) ** 2 + p / m))
    assert burn_in_steps(eps, m, 0.1, eta, lam_pi, p) == 0
    assert burn_in_steps(10.0 * eps, m, 0.1, eta, lam_pi, p) == 0


def test_burn_in_contraction_violated():
    with pytest.raises(ConfigurationStepError):
        burn_in_steps(0.1, 1.0, 2.0, 1.0, 0.5, 4)


def test_burn_in_floor_warning():
    with pytest.warns(UserWarning):
        burn_in_steps(0.1, 1.0, 0.1, 1.0, 0.5, 4, floor=0.5)


def test_burn_in_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        burn_in_steps(0.0, 1.0, 0.1, 1.0, 0.5, 4)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]))
def test_burn_in_rejects_non_finite_epsilon_m_and_gamma(bad):
    # a NaN epsilon or m failed with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="epsilon must be positive"):
        burn_in_steps(bad, 1.0, 0.1, 1.0, 0.5, 4)
    for m, gamma in ((bad, 0.1), (1.0, bad)):
        with pytest.raises(ValueError, match="m and gamma must be positive"):
            burn_in_steps(0.1, m, gamma, 1.0, 0.5, 4)


def test_burn_in_rejects_a_negative_c_w_and_is_zero_past_the_floats():
    # c_w < 0 failed with "math domain error", and eps = 1e300 overflowed eps^2
    for c_w in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_w must be nonnegative and finite"):
            burn_in_steps(0.1, 1.0, 0.1, 1.0, 0.5, 4, c_w=c_w)
    assert burn_in_steps(1e300, 1.0, 0.1, 1.0, 0.5, 4) == 0


@given(epsilon=st.floats(1e-6, 1e150), m=st.floats(1e-3, 1e3), m_gamma=st.floats(1e-6, 1.99),
       eta=st.floats(1e-6, 10.0), lambda_pi=st.floats(1e-3, 1e6), p=st.integers(1, 64),
       c_w=st.floats(0.0, 1e3))
def test_burn_in_is_the_formula_where_eps_squared_is_a_float(epsilon, m, m_gamma, eta,
                                                             lambda_pi, p, c_w):
    gamma = m_gamma / m
    denom = 32.0 * (c_w * max(eta, lambda_pi / m) ** 2 + p / m)
    ratio = epsilon ** 2 / denom
    want = 0 if ratio >= 1.0 else math.ceil(math.log(ratio) / math.log(1.0 - m * gamma / 2.0))
    assert burn_in_steps(epsilon, m, gamma, eta, lambda_pi, p, c_w=c_w) == want


def test_precision_floor_value():
    assert precision_floor(100, 0.3, 0.01) == pytest.approx(
        math.sqrt(16.0 * math.exp(-9.0) + 0.08), rel=1e-12)
