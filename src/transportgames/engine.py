"""Kernel backend selection and scale-normalized integer views of instances.

The enumeration kernels work on integer distances obtained by multiplying the
whole matrix by the least common multiple of its denominators. Every player
cost and social value is then an integer, comparisons stay exact, and results
convert back to `Fraction` by dividing out the scale.

Two interchangeable backends exist:

* ``_kernel_c`` — the optional compiled extension (built via Cython), used
  automatically when importable and when the scaled values fit int64;
* ``_kernel_py`` — the pure-Python fallback, always available, arbitrary
  precision.

Set the environment variable ``TRANSPORTGAMES_PURE=1`` (or pass
``backend="pure"``) to force the fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _kernel_py
from .core import Instance, scaled_rows

try:
    from . import _kernel_c
except ImportError:  # pragma: no cover - depends on whether the extension was built
    _kernel_c = None

ENV_FORCE_PURE = "TRANSPORTGAMES_PURE"

# Worst scaled quantity is the all-player cost sum, at most n^2 * max_entry;
# one power of two of headroom keeps every intermediate clear of int64.
_INT64_HEADROOM = 2**62

BACKEND_NAMES = ("auto", "compiled", "pure")


def compiled_available() -> bool:
    return _kernel_c is not None


@dataclass(frozen=True)
class ScaledView:
    """An instance reduced to flat integer arrays for the kernels."""

    n: int
    m: int
    scale: int
    dist: tuple[int, ...]
    perms: tuple[int, ...]
    max_entry: int

    def to_fraction(self, value: int) -> Fraction:
        return Fraction(value, self.scale)

    def fits_int64(self) -> bool:
        return self.max_entry * self.n * self.n < _INT64_HEADROOM


@lru_cache(maxsize=256)
def scaled_view(inst: Instance) -> ScaledView:
    scale, rows = scaled_rows(inst.dist)
    flat = tuple(v for row in rows for v in row)
    perms_flat = tuple(p - 1 for perm in inst.perms for p in perm)
    return ScaledView(inst.n, inst.m, scale, flat, perms_flat, max(flat))


def resolve_backend(view: ScaledView, backend: str | None = None):
    """Pick the kernel module for this view.

    ``backend`` may be "auto" (default), "pure", or "compiled"; forcing
    "compiled" raises when the extension is missing or the values do not fit
    int64.
    """
    choice = backend if backend is not None else "auto"
    if choice not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKEND_NAMES}")
    if choice == "auto" and os.environ.get(ENV_FORCE_PURE):
        choice = "pure"
    if choice == "pure":
        return _kernel_py
    if choice == "compiled":
        if _kernel_c is None:
            raise RuntimeError("compiled kernels requested but the extension is not built")
        if not view.fits_int64():
            raise RuntimeError("compiled kernels requested but scaled distances overflow int64")
        return _kernel_c
    if _kernel_c is not None and view.fits_int64():
        return _kernel_c
    return _kernel_py


def backend_name(module) -> str:
    return "compiled" if module is _kernel_c else "pure"
