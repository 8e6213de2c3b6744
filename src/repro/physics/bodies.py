"""Body state in structure-of-arrays layout.

The C++ artifact stores masses and positions in separate vectors (see
paper Algorithm 7's ``vector<double> m, vector<vec3<double>> x``); we
mirror that with contiguous FP64 numpy arrays, which is also the
vectorization-friendly layout for the Python kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import validate_masses, validate_positions


@dataclass
class BodySystem:
    """Positions, velocities and masses of ``N`` bodies.

    Arrays are owned (contiguous, FP64) and mutated in place by the
    integrator; use :meth:`copy` to snapshot.
    """

    x: np.ndarray  # (N, dim) positions
    v: np.ndarray  # (N, dim) velocities
    m: np.ndarray  # (N,)    masses

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check shapes, finiteness and ``m >= 0``, raising a
        ``ValueError`` that names the array.  Valid contiguous FP64
        arrays are kept, not copied, so a second call re-checks arrays
        mutated in place since construction."""
        self.x = validate_positions(self.x)
        n, dim = self.x.shape
        self.v = validate_positions(self.v, dim, "velocities")
        if self.v.shape != (n, dim):
            raise ValueError(f"velocities shape {self.v.shape} != positions {self.x.shape}")
        self.m = validate_masses(self.m, n)

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n: int, dim: int = 3) -> "BodySystem":
        return cls(np.zeros((n, dim)), np.zeros((n, dim)), np.zeros(n))

    @classmethod
    def from_arrays(cls, x, v=None, m=None) -> "BodySystem":
        x = validate_positions(x)
        n, dim = x.shape
        v = np.zeros((n, dim)) if v is None else v
        m = np.ones(n) if m is None else m
        return cls(x, v, m)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.m.sum())

    def copy(self) -> "BodySystem":
        return BodySystem(self.x.copy(), self.v.copy(), self.m.copy())

    def permuted(self, perm: np.ndarray) -> "BodySystem":
        """A copy with bodies reordered by *perm* (used after HILBERTSORT)."""
        return BodySystem(self.x[perm], self.v[perm], self.m[perm])

    def apply_permutation(self, perm: np.ndarray) -> None:
        """In-place reorder (the paper applies the sorted permutation to
        the body arrays, see implementation issue 2 in Section V-A)."""
        self.x = np.ascontiguousarray(self.x[perm])
        self.v = np.ascontiguousarray(self.v[perm])
        self.m = np.ascontiguousarray(self.m[perm])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BodySystem(n={self.n}, dim={self.dim}, M={self.total_mass:.6g})"
