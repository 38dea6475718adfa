"""Dimension vectors of multi-matrix algebras M_k1 (+) ... (+) M_kn."""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class DimVector:
    """Block sizes (k_1, ..., k_n), all positive."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("dimension vector must be nonempty")
        for k in self.sizes:
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"block size {k!r} must be a positive integer")

    @classmethod
    def of(cls, *sizes: int) -> "DimVector":
        return cls(tuple(sizes))

    @classmethod
    def parse(cls, text: str) -> "DimVector":
        """From comma fields, each a positive decimal integer in ASCII
        digits without sign or leading zero, spaces around it allowed."""
        fields = [tok.strip(" ") for tok in text.split(",")]
        for tok in fields:
            if not re.fullmatch(r"[1-9][0-9]*", tok):
                raise ValueError(f"invalid block size {tok!r} in dimension vector {text!r}: expected a positive integer")
        return cls(tuple(int(tok) for tok in fields))

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def algebra_dim(self) -> int:
        return sum(k * k for k in self.sizes)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.sizes) if self.n > 1 else self.sizes[0]

    def scope_warning(self) -> str | None:
        """Flag algebras of dimension < 4, where the closed-form K-theory
        computed by this library is not established."""
        d = self.algebra_dim
        if d < 4:
            return (
                f"algebra dimension {d} is below 4; the closed-form K-theory "
                "is only established for dimension >= 4"
            )
        return None

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        return self.sizes[i]

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.sizes)


def random_dim_vectors(
    count: int, max_blocks: int, max_size: int, seed: int = 0
) -> list[DimVector]:
    """Deterministic sample of dimension vectors for sweeps."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_blocks)
        out.append(DimVector(tuple(rng.randint(1, max_size) for _ in range(n))))
    return out

