"""One-parameter exponential families, link functions and the natural-parameter map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_KINDS = ("gaussian", "poisson", "bernoulli")
LINK_KINDS = ("canonical", "cube")


def _sigmoid(h):
    # numerically stable logistic function
    out = np.empty_like(h, dtype=float)
    pos = h >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    eh = np.exp(h[~pos])
    out[~pos] = eh / (1.0 + eh)
    return out


def _A1_gaussian(h):
    return h + 0.0


def _A1_bernoulli(h):
    return _sigmoid(np.atleast_1d(h))[()] if h.ndim == 0 else _sigmoid(h)


# A' of each family kind (ExpFamily._A1).
_A1_OF = {"gaussian": _A1_gaussian, "poisson": np.exp, "bernoulli": _A1_bernoulli}


@dataclass(frozen=True)
class ExpFamily:
    """Exponential family with log-partition A and derivatives.

    gaussian:  A(h) = h^2/2        (reference measure N(0,1))
    poisson:   A(h) = e^h - 1      (reference Poisson(1)-type law)
    bernoulli: A(h) = log(1+e^h)   (symmetric Bernoulli reference)
    """

    kind: str

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; expected one of {FAMILY_KINDS}")

    def A(self, h):
        h = np.asarray(h, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "gaussian":
                return h * h / 2.0
            if self.kind == "poisson":
                return np.exp(h) - 1.0
            return np.logaddexp(0.0, h)

    def A1(self, h):
        with np.errstate(over="ignore"):
            return self._A1(np.asarray(h, dtype=float))

    @property
    def _A1(self):
        """The family's A' of a float array, under the caller's floating-point
        error state: one function per kind, so a caller that looks it up once
        pays no branch on the kind per call."""
        return _A1_OF[self.kind]

    def A2(self, h):
        h = np.asarray(h, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "gaussian":
                return np.ones_like(h)[()]
            if self.kind == "poisson":
                return np.exp(h)
            s = self.A1(h)
            return s * (1.0 - s)

    def A3(self, h):
        """Third derivative of A (used in the natural-parameter chain rule)."""
        h = np.asarray(h, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "gaussian":
                return np.zeros_like(h)[()]
            if self.kind == "poisson":
                return np.exp(h)
            s = self.A1(h)
            return s * (1.0 - s) * (1.0 - 2.0 * s)

    def A1_inv(self, m):
        """Inverse of A' on the family's mean range."""
        m = np.asarray(m, dtype=float)
        if self.kind == "gaussian":
            return m + 0.0
        if self.kind == "poisson":
            if np.any(m <= 0):
                raise ValueError("poisson mean must be positive")
            return np.log(m)
        if np.any((m <= 0) | (m >= 1)):
            raise ValueError("bernoulli mean must lie in (0, 1)")
        return np.log(m) - np.log1p(-m)

    def sample(self, h, seed):
        """Draw responses with natural parameter h; deterministic per seed."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        h = np.asarray(h, dtype=float)
        if self.kind == "gaussian":
            return h + rng.standard_normal(h.shape)
        if self.kind == "poisson":
            lam = np.exp(h)
            if np.any(~np.isfinite(lam)):
                raise ValueError("poisson natural parameter overflow; use a smaller theta0")
            return rng.poisson(lam).astype(float)
        return (rng.random(h.shape) < self.A1(h)).astype(float)


@dataclass(frozen=True)
class LinkFunction:
    """Invertible link g and the derivatives of g^{-1} needed downstream.

    'canonical' is g = A', so the natural-parameter map b is the identity
    on the forward-operator output.  'cube' is g(x) = x^3 on the positive
    half-line (a concrete smooth non-canonical link for the gaussian family).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link {self.kind!r}; expected one of {LINK_KINDS}")

    def _cube_only(self, name):
        if self.kind != "cube":
            raise ValueError(f"the canonical link's {name} is family-dependent; "
                             "use natural_param")

    def g(self, x):
        self._cube_only("g")
        return np.asarray(x, dtype=float) ** 3

    def g_inv(self, u):
        self._cube_only("g_inv")
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise ValueError("cube link defined on the positive half-line")
        return np.cbrt(u)

    def g_inv_d1(self, u):
        self._cube_only("g_inv_d1")
        u = np.asarray(u, dtype=float)
        return np.cbrt(u) / (3.0 * u)

    def g_inv_d2(self, u):
        self._cube_only("g_inv_d2")
        u = np.asarray(u, dtype=float)
        return -2.0 * np.cbrt(u) / (9.0 * u * u)


def natural_param(fam: ExpFamily, link: LinkFunction, u):
    """b = (A')^{-1} o g^{-1} evaluated at the forward-map output u."""
    if link.kind == "canonical":
        return np.asarray(u, dtype=float) + 0.0
    try:
        mean = link.g_inv(u)
    except ValueError as exc:
        raise ValueError(f"value outside the range of link {link.kind!r}: {exc}") from exc
    return fam.A1_inv(mean)


def natural_param_d1(fam: ExpFamily, link: LinkFunction, u):
    """First derivative of u -> (A')^{-1}(g^{-1}(u))."""
    u = np.asarray(u, dtype=float)
    if link.kind == "canonical":
        return np.ones_like(u)[()]
    mean = link.g_inv(u)
    h = fam.A1_inv(mean)
    return link.g_inv_d1(u) / fam.A2(h)


def natural_param_d2(fam: ExpFamily, link: LinkFunction, u):
    """Second derivative of u -> (A')^{-1}(g^{-1}(u))."""
    u = np.asarray(u, dtype=float)
    if link.kind == "canonical":
        return np.zeros_like(u)[()]
    mean = link.g_inv(u)
    h = fam.A1_inv(mean)
    a2 = fam.A2(h)
    d1 = link.g_inv_d1(u)
    d2 = link.g_inv_d2(u)
    # (A1_inv o g_inv)'' = g_inv'' / A2 - g_inv'^2 A3 / A2^3
    return d2 / a2 - d1 * d1 * fam.A3(h) / a2 ** 3
