"""Unadjusted Langevin chains with exit tracking and ergodic accumulators."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

# Steps of noise drawn per call to the generator in run_chain.
NOISE_BLOCK = 1024
# run_chain at a non-finite drift: end the chain, or pull the state in and retry.
GUARDS = ("none", "reflect")
_FLOAT_MAX = sys.float_info.max


class ChainDivergedError(RuntimeError):
    """Raised when a chain hits a non-finite state or drift with guard='none'."""

    def __init__(self, step: int, last_state: np.ndarray):
        super().__init__(f"chain diverged at step {step}")
        self.step = step
        self.last_state = last_state


@dataclass
class SamplerConfig:
    gamma: float = 1e-3
    j_in: int = 0
    j: int = 1
    seed: int = 0
    guard: str = "none"  # one of GUARDS
    guard_radius: float = 1e3

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:  # NaN too
            raise ValueError("gamma must be positive and finite")
        if not 0 < self.guard_radius < math.inf:
            raise ValueError("guard_radius must be positive and finite")
        if self.j_in < 0 or self.j < 1:
            raise ValueError("need j_in >= 0 and j >= 1")
        if self.guard not in GUARDS:
            raise ValueError(f"unknown guard {self.guard!r}")


@dataclass
class ChainTrace:
    states: np.ndarray  # (n_stored, p), thinned by `stride`
    stride: int
    exit_step: int | None
    accumulators: dict
    j_in: int
    j: int
    seed: int
    gamma: float
    guard_trigger_count: int = 0
    final_state: np.ndarray | None = None

    def ergodic_average(self, functional_id: str):
        if functional_id not in self.accumulators:
            raise KeyError(f"functional {functional_id!r} was not registered before the run")
        return self.accumulators[functional_id] / self.j

    def post_burn_in_states(self) -> np.ndarray:
        """Stored states whose step index exceeds j_in."""
        first = self.j_in // self.stride + 1
        return self.states[first:]


def _step(drift, state, gamma, scaled_noise):
    """(new, new.new) for new = state + gamma * drift(state) + scaled_noise,
    the one ULA step formula; raises FloatingPointError for a drift with a
    NaN or infinite entry."""
    d = drift(state)
    if type(d) is not np.ndarray:  # a list, say
        d = np.asarray(d, dtype=float)
    new = state + gamma * d + scaled_noise
    sq = new.dot(new)
    # gamma > 0, so a NaN or infinite drift entry leaves one in new and makes
    # sq NaN or inf: the drift is tested element-wise only then (a finite
    # drift or state whose squares overflow gets there and passes).
    if not math.isfinite(sq) and not np.isfinite(d).all():
        raise FloatingPointError("non-finite drift")
    return new, sq


def run_chain(drift, theta_init, config: SamplerConfig, functionals=None,
              region_center=None, region_radius=None,
              storage_budget: int = 10_000_000) -> ChainTrace:
    """Advance j_in + j ULA steps from theta_init.

    `functionals` maps names to block functionals: callables that take a
    (k, p) array of states and return one value per state, as an array of k
    rows (`lambda S: S` is the identity, `lambda S: S[:, 0]` the first
    coordinate).  Their sums over the averaging window (steps j_in+1 ..
    j_in+j) are accumulated at full resolution regardless of trace thinning,
    in step order.  The first step k >= 1 with ||state_k - region_center|| >
    region_radius is recorded as the exit step; the chain keeps running.  The
    noise is drawn NOISE_BLOCK steps at a time from default_rng(seed), which
    gives the same draws as one per step; the states of a block are stored,
    searched for the exit and passed to the functionals once the block is done.

    The whole chain runs under np.errstate(over="ignore", invalid="ignore"):
    the drift is called under it and need not set its own, and an overflow is
    caught as a non-finite drift or state, not warned of.
    """
    functionals = functionals or {}
    fns = list(functionals.values())
    theta = np.asarray(theta_init, dtype=float)
    p = theta.size
    total = config.j_in + config.j
    stride = 1
    while (total // stride + 1) * p > storage_budget:
        stride *= 2
    rng = np.random.default_rng(config.seed)
    acc = [None] * len(fns)
    states = np.empty((total // stride + 1, p))
    states[0] = theta
    buf = np.empty((min(NOISE_BLOCK, total), p))  # the states of one block
    exit_step = None
    guard_count = 0
    track_exit = region_center is not None and region_radius is not None
    gamma, j_in = config.gamma, config.j_in
    reflect = config.guard == "reflect"
    radius = config.guard_radius
    noise_scale = math.sqrt(2.0 * gamma)
    # a diverging chain's overflow is caught below: numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, total, NOISE_BLOCK):
            block = rng.standard_normal((min(NOISE_BLOCK, total - lo), p))
            block *= noise_scale  # the same bits as noise_scale * noise, step by step
            for i, noise in enumerate(block):
                try:
                    theta, sq = _step(drift, theta, gamma, noise)
                except FloatingPointError:
                    if not reflect:
                        raise ChainDivergedError(lo + i + 1, theta) from None
                    # pull the state back inside the guard radius and retry once
                    r = _norm(theta, theta.dot(theta))
                    if r > radius:
                        theta = theta * (radius / r)
                    guard_count += 1
                    try:
                        theta, sq = _step(drift, theta, gamma, noise)
                    except FloatingPointError:
                        raise ChainDivergedError(lo + i + 1, theta) from None
                if reflect:
                    r = _norm(theta, sq)
                    if r > radius:
                        s = _fold_radius(2.0 * radius - r, radius)
                        # theta / r first where theta * s could overflow
                        theta = theta * s / r if math.isfinite(sq) else theta / r * s
                        guard_count += 1
                        sq = theta.dot(theta)
                if not math.isfinite(sq) and not np.isfinite(theta).all():
                    _store(states, buf[:i], lo, stride)
                    raise ChainDivergedError(lo + i + 1, states[(lo + i) // stride].copy())
                buf[i] = theta
            done = buf[:len(block)]
            _store(states, done, lo, stride)
            if track_exit and exit_step is None:
                exit_step = _first_exit(done, lo, region_center, region_radius)
            if lo + len(done) > j_in:
                window = done[max(j_in - lo, 0):]
                for i, f in enumerate(fns):
                    acc[i] = _accumulate(acc[i], f(window), len(window))
    accumulators = {name: 0.0 if a is None else a for name, a in zip(functionals, acc)}
    return ChainTrace(states, stride, exit_step, accumulators,
                      config.j_in, config.j, config.seed, config.gamma,
                      guard_trigger_count=guard_count, final_state=theta)


def _store(states, rows, lo, stride):
    """Copy the rows of steps lo+1 .. lo+len(rows) whose step is a multiple of
    stride into states, where step k goes to row k // stride."""
    first = lo // stride + 1
    kept = rows[first * stride - lo - 1::stride]
    states[first:first + len(kept)] = kept


def _first_exit(rows, lo, center, radius):
    """The first of the steps lo+1 .. lo+len(rows) whose state (a row) has
    math.sqrt(d.dot(d)) > radius for d = state - center, or None.

    The squared distances are screened in one einsum, with a margin: OpenBLAS
    ddot sums with FMA, so they may differ from d.dot(d) by a few ulps.  The
    candidates are then tested exactly, in step order.  At a radius <= 1e-140
    (whose square may be subnormal) every row is a candidate.
    """
    diff = rows - center
    sq = np.einsum("ij,ij->i", diff, diff)
    lim = -1.0 if radius <= 1e-140 else min(radius * radius, _FLOAT_MAX) * (1.0 - 1e-9)
    for i in np.flatnonzero(sq >= lim):
        d = rows[i] - center
        if math.sqrt(d.dot(d)) > radius:
            return lo + int(i) + 1
    return None


def _accumulate(acc, values, k):
    """acc plus the k rows of a functional's values, added one row at a time
    in step order: the same bits as acc += value at each step (np.add.reduce
    sums pairwise and differs).  With acc None the sum starts at the first row."""
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != (k,):
        raise ValueError(f"a functional must return one row per state: got shape "
                         f"{values.shape} for {k} states")
    if acc is not None:
        values = np.concatenate((acc[None], values))
    return np.add.accumulate(values, axis=0)[-1].copy()


def _norm(v: np.ndarray, sq: float) -> float:
    """||v|| from sq = v.v, the same bits as np.linalg.norm(v).  Where sq is
    not finite, math.hypot scales the entries, so a finite v whose squares
    overflow keeps its finite norm."""
    return math.sqrt(sq) if math.isfinite(sq) else math.hypot(*v)


def _fold_radius(s: float, radius: float) -> float:
    """Signed radius s folded into [-radius, radius] by repeated reflection.

    s = 2R - r is one reflection at the sphere; s < 0 means the state passed
    through the origin, and s < -R that it overshot the far side as well.
    """
    if s < -radius:
        s = (s + radius) % (4.0 * radius) - radius
        if s > radius:
            s = 2.0 * radius - s
    return s


def step_size_bound(m: float, lam: float) -> tuple[float, float]:
    """(sampling bound 2/(m+Lambda), exit-time bound m/(sqrt(54) Lambda^2))."""
    if not (0 < m < math.inf and 0 < lam < math.inf):  # NaN too
        raise ValueError("m and lambda must be positive and finite")
    return 2.0 / (m + lam), m / (math.sqrt(54.0) * lam ** 2)


def discretization_bias(gamma: float, p: int, m: float, lam: float) -> float:
    """Wasserstein discretization bias B(gamma) = 36 g p L^2/m^2 + 12 g^2 p L^4/m^3."""
    return 36.0 * gamma * p * lam ** 2 / m ** 2 + 12.0 * gamma ** 2 * p * lam ** 4 / m ** 3


def precision_floor_terms(n: int, delta_n: float, bias: float) -> tuple[float, float]:
    """(16 e^{-n delta^2}, 8 B(gamma)): the tail and bias terms under the
    precision floor's root."""
    return 16.0 * math.exp(-n * delta_n ** 2), 8.0 * bias


def precision_floor(n: int, delta_n: float, bias: float) -> float:
    """Smallest certified precision level sqrt(16 e^{-n delta^2} + 8 B(gamma))."""
    tail, bias_term = precision_floor_terms(n, delta_n, bias)
    return math.sqrt(tail + bias_term)


def burn_in_steps(epsilon: float, m: float, gamma: float, eta: float,
                  lambda_pi: float, p: int, c_w: float = 1.0,
                  floor: float | None = None) -> int:
    """Burn-in from the geometric-contraction bound.

    J_in = ceil( log(eps^2 / (32 (c_w max(eta, Lambda_pi/m)^2 + p/m)))
                 / log(1 - m gamma / 2) ),

    and 0 where the ratio is at least 1 or eps^2 is past the largest float;
    a ValueError where the denominator is past it.
    """
    if not 0 < epsilon < math.inf:  # NaN too
        raise ValueError("epsilon must be positive and finite")
    if not (0 < m < math.inf and 0 < gamma < math.inf):
        raise ValueError("m and gamma must be positive and finite")
    if not 0 <= c_w < math.inf:
        raise ValueError("c_w must be nonnegative and finite")
    if m * gamma >= 2.0:
        raise ConfigurationStepError("m * gamma must be below 2 for the contraction bound")
    if floor is not None and epsilon < floor:
        warnings.warn(
            f"requested precision {epsilon:g} is below the certified floor {floor:g}; "
            "the burn-in bound is not guaranteed to reach it", stacklevel=2)
    try:
        denom = 32.0 * (c_w * max(eta, lambda_pi / m) ** 2 + p / m)
    except OverflowError:
        denom = math.inf
    if not denom < math.inf:  # NaN too
        raise ValueError("the burn-in denominator 32 (c_w max(eta, Lambda_pi/m)^2 + p/m) is "
                         f"not finite at c_w = {c_w:g}, eta = {eta:g}, "
                         f"Lambda_pi/m = {lambda_pi / m:g}, p/m = {p / m:g}")
    try:
        ratio = epsilon ** 2 / denom
    except OverflowError:
        return 0
    if ratio >= 1.0:
        return 0
    return int(math.ceil(math.log(ratio) / math.log(1.0 - m * gamma / 2.0)))


class ConfigurationStepError(ValueError):
    pass
