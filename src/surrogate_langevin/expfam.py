"""One-parameter exponential families, link functions and the natural-parameter map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_KINDS = ("gaussian", "poisson", "bernoulli")
LINK_KINDS = ("canonical", "cube")


class DomainError(ValueError, FloatingPointError):
    """A value outside the natural-parameter map's domain (the cube link's
    u <= 0, a mean outside the family's range): a ValueError to a caller
    that validates input, a non-finite drift to a chain's guard."""


def _sigmoid(h):
    # numerically stable logistic function
    out = np.empty_like(h, dtype=float)
    pos = h >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    eh = np.exp(h[~pos])
    out[~pos] = eh / (1.0 + eh)
    return out[()]


def _A1_gaussian(h):
    return h + 0.0


# A' of each family kind (ExpFamily._A1).
_A1_OF = {"gaussian": _A1_gaussian, "poisson": np.exp, "bernoulli": _sigmoid}


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
            e = np.exp(-np.abs(h))  # in symmetric form: no 1 - s cancels to 0
            return e / (1.0 + e) ** 2

    def A3(self, h):
        """Third derivative of A (used in the natural-parameter chain rule)."""
        h = np.asarray(h, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "gaussian":
                return np.zeros_like(h)[()]
            if self.kind == "poisson":
                return np.exp(h)
            e = np.exp(-np.abs(h))
            return -np.sign(h) * (e * (1.0 - e) / (1.0 + e) ** 3)

    def A1_inv(self, m):
        """Inverse of A' on the family's mean range; DomainError outside it."""
        m = np.asarray(m, dtype=float)
        if self.kind == "gaussian":
            return m + 0.0
        if self.kind == "poisson":
            if np.any(m <= 0):
                raise DomainError("poisson mean must be positive")
            return np.log(m)
        if np.any((m <= 0) | (m >= 1)):
            raise DomainError("bernoulli mean must lie in (0, 1)")
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
    """Invertible link g, given by its inverse (natural_param_derivs
    differentiates it).

    'canonical' is g = A', so the natural-parameter map b is the identity
    on the forward-operator output.  'cube' is g(x) = x^3 on the positive
    half-line (a concrete smooth non-canonical link for the gaussian family).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link {self.kind!r}; expected one of {LINK_KINDS}")

    def g_inv(self, u):
        """g^{-1}(u) of the cube link; DomainError, naming the link, where u
        is outside its range u > 0."""
        if self.kind != "cube":
            raise ValueError("the canonical link's g_inv is family-dependent; "
                             "use natural_param")
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise DomainError("value outside the range of link 'cube': "
                              "cube link defined on the positive half-line")
        return np.cbrt(u)


def natural_param(fam: ExpFamily, link: LinkFunction, u):
    """b = (A')^{-1} o g^{-1} evaluated at the forward-map output u."""
    return natural_param_derivs(fam, link, u, order=0)[0]


def natural_param_derivs(fam: ExpFamily, link: LinkFunction, u, order=2):
    """(b, b', b'') at the forward-map output u, b = (A')^{-1} o g^{-1}, from
    one g^{-1} and one (A')^{-1}; order=1 gives (b, b'), order=0 (b,).  The
    canonical link gives (u + 0.0, 1.0, 0.0); DomainError outside the range."""
    u = np.asarray(u, dtype=float)
    if link.kind == "canonical":
        return (u + 0.0, 1.0, 0.0)[:order + 1]
    mean = link.g_inv(u)
    h = fam.A1_inv(mean)
    if order == 0:
        return (h,)
    a2 = fam.A2(h)
    # near u = 0 the derivatives outgrow the floats: they overflow to +-inf,
    # and u^2 and A2^3 may round to 0, silently
    with np.errstate(over="ignore", divide="ignore"):
        d1 = mean / (3.0 * u)  # (g^{-1})' = cbrt(u) / (3u)
        if order == 1:
            return h, d1 / a2
        uu = 9.0 * u * u
        d2 = -2.0 * mean / uu  # (g^{-1})'' = -2 cbrt(u) / (9u^2)
        if np.any(uu == 0.0):  # 9u^2 rounds to 0 below u ~ 1e-162: divide by u twice
            d2 = np.where(uu == 0.0, -2.0 / 3.0 * d1 / u, d2)[()]
        if fam.kind == "gaussian":  # A3 = 0, and inf * 0 would read NaN
            return h, d1 / a2, d2 / a2
        # (A1_inv o g_inv)'' = g_inv'' / A2 - g_inv'^2 A3 / A2^3
        return h, d1 / a2, d2 / a2 - d1 * d1 * fam.A3(h) / a2 ** 3
