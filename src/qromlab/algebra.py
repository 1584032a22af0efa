"""Finite abelian groups and their Fourier kernels.

A group is a product of cyclic factors Z_q1 x ... x Z_qm.  Elements are
stored as plain integers in mixed-radix encoding with the first factor
most significant, so the index order matches the Kronecker product of the
per-factor transforms.  The dual group is identified with the group
itself: index j names both the element j and the character
chi_j(y) = exp(2*pi*i * sum_k j_k*y_k/q_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, typed


@dataclass(frozen=True)
class GroupSpec:
    """Product of cyclic groups, given by the tuple of moduli."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(q) for q in self.factors)
        if not factors:
            raise DomainError("a group needs at least one cyclic factor")
        if any(q < 2 for q in factors):
            raise DomainError(f"cyclic moduli must be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    def check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.order:
            raise DomainError(f"element index {index} out of range for order {self.order}")
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        """Mixed-radix digits of an element index, first factor most significant."""
        index = self.check(index)
        digits = []
        for q in reversed(self.factors):
            digits.append(index % q)
            index //= q
        return tuple(reversed(digits))

    def encode(self, digits: tuple[int, ...]) -> int:
        if len(digits) != len(self.factors):
            raise DomainError("component count does not match factor count")
        index = 0
        for d, q in zip(digits, self.factors):
            d = int(d)
            if not 0 <= d < q:
                raise DomainError(f"component {d} out of range for modulus {q}")
            index = index * q + d
        return index

    def add(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        return self.encode(tuple((x + y) % q for x, y, q in zip(da, db, self.factors)))

    def neg(self, a: int) -> int:
        return self.encode(tuple((-x) % q for x, q in zip(self.decode(a), self.factors)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def character(self, yhat: int, y: int) -> complex:
        """chi_yhat(y), a root of unity.  Symmetric in its two arguments."""
        dh, dy = self.decode(yhat), self.decode(y)
        angle = sum((h * v) / q for h, v, q in zip(dh, dy, self.factors))
        return complex(np.exp(2j * np.pi * angle))

    @cached_property
    def add_table(self) -> np.ndarray:
        """n x n table with add_table[a, b] = a + b."""
        n = self.order
        table = np.empty((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                table[a, b] = self.add(a, b)
        return table

    @cached_property
    def neg_table(self) -> np.ndarray:
        return np.array([self.neg(a) for a in range(self.order)], dtype=np.int64)

    @cached_property
    def character_table(self) -> np.ndarray:
        """n x n table with character_table[yhat, y] = chi_yhat(y)."""
        blocks = []
        for q in self.factors:
            k = np.arange(q)
            blocks.append(np.exp(2j * np.pi * np.outer(k, k) / q))
        table = blocks[0]
        for b in blocks[1:]:
            table = np.kron(table, b)
        return table

    @cached_property
    def fourier_matrix(self) -> np.ndarray:
        """Unitary F with F[yhat, y] = conj(chi_yhat(y)) / sqrt(order).

        Columns are the Fourier-basis kets written in computational
        coordinates, so F maps Fourier coefficients to computational
        amplitudes and F^dagger goes the other way.  F is symmetric.
        """
        return self.character_table.conj() / math.sqrt(self.order)

    def lsb(self, y: int) -> int:
        """Low bit of the first mixed-radix component; the key map used by the zoo."""
        return self.decode(y)[0] % 2

    def to_json(self) -> list[int]:
        return list(self.factors)

    @classmethod
    def from_json(cls, data, error=DomainError) -> "GroupSpec":
        """Inverse of ``to_json``; a factor that is not an int (a bool included) is ``error``."""
        return cls(tuple(typed(q, int, "group factor", error)
                         for q in typed(data, list, "group factors", error)))


def cyclic(n: int) -> GroupSpec:
    """Z_n, the group used for plain index registers."""
    return GroupSpec((n,))
