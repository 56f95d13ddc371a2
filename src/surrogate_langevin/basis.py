"""Orthonormal bases on [0, 1] and their design matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASIS_KINDS = ("cosine-with-constant", "cosine-centered", "dirichlet-sine")


@dataclass(frozen=True)
class BasisFamily:
    """An orthonormal basis of L^2([0,1], dx), truncated at dimension p.

    Kinds:
      cosine-with-constant: e_1 = 1, e_k(x) = sqrt(2) cos(pi (k-1) x) for k >= 2
      cosine-centered:      e_k(x) = sqrt(2) cos(pi k x)  (all integrate to 0)
      dirichlet-sine:       e_k(x) = sqrt(2) sin(pi k x)  (Dirichlet Laplacian
                            eigenfunctions, eigenvalue pi^2 k^2)
    """

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")
        if self.p < 1:
            raise ValueError(f"basis dimension p must be >= 1, got {self.p}")

    def design_matrix(self, x) -> np.ndarray:
        """Matrix E with E[i, k-1] = e_k(x_i), shape (len(x), p)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not ((x >= 0.0) & (x <= 1.0)).all():  # NaN too
            raise ValueError("evaluation point outside [0, 1]")
        ks = np.arange(1, self.p + 1)
        if self.kind == "cosine-with-constant":
            E = np.sqrt(2.0) * np.cos(np.pi * (ks - 1)[None, :] * x[:, None])
            E[:, 0] = 1.0
            return E
        if self.kind == "cosine-centered":
            return np.sqrt(2.0) * np.cos(np.pi * ks[None, :] * x[:, None])
        return np.sqrt(2.0) * np.sin(np.pi * ks[None, :] * x[:, None])
