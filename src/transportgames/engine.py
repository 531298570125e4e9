"""Scale-normalized integer views of instances.

The enumeration kernels in `_kernel_py` work on integer distances obtained by
multiplying the whole matrix by the least common multiple of its
denominators. Every player cost and social value is then an integer,
comparisons stay exact, and results convert back to `Fraction` by dividing
out the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _kernel_py
from .core import Instance, scaled_rows


@dataclass(frozen=True)
class ScaledView:
    """An instance reduced to flat integer arrays for the kernels."""

    n: int
    m: int
    scale: int
    dist: tuple[int, ...]
    perms: tuple[int, ...]
    lead: int  # how many buses the scans let player 1 use: 1 or m

    def to_fraction(self, value: int) -> Fraction:
        return Fraction(value, self.scale)


@lru_cache(maxsize=256)
def scaled_view(inst: Instance) -> ScaledView:
    scale, rows = scaled_rows(inst.dist)
    flat = tuple(v for row in rows for v in row)
    perms_flat = tuple(p - 1 for perm in inst.perms for p in perm)
    # Buses that share one pickup order can be relabeled without changing any
    # cost, so the scans need only the outcomes with player 1 on bus 1.
    lead = 1 if len(set(inst.perms)) == 1 else inst.m
    return ScaledView(inst.n, inst.m, scale, flat, perms_flat, lead)


# Read only by the benchmark harness in perfbench/, which still records a
# kernel backend; nothing in the package calls them. `_kernel_py` is the one
# kernel, so they answer for it.
_kernel_c = None
ENV_FORCE_PURE = "TRANSPORTGAMES_PURE"


def compiled_available() -> bool:
    return False


def resolve_backend(view: ScaledView):
    return _kernel_py


def backend_name(module) -> str:
    return "pure"
