"""Scale-normalized integer views of instances, and the one way into the kernels.

The kernels in `_kernel_py` work on integer distances: the `Instance.rows`
matrix, `dist` times its `scale`. Every cost is then an integer, comparisons
stay exact, and results convert back to `Fraction` by dividing out the scale.
Outcomes travel as the kernels' codes, their lexicographic ranks.
Each question asked of a kernel is one `ScaledView` method, and `view_within`
checks the outcome budget first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import _kernel_py
from .core import Instance, Outcome
from .errors import BudgetExceededError

DEFAULT_OUTCOME_BUDGET = 10**7
FCODES = (0, 1, 2)  # every social function code: D, E, U


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

    def outcome(self, code: int) -> Outcome:
        """The outcome whose kernel code is `code`."""
        digits = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            code, digits[i] = divmod(code, self.m)
        return tuple(d + 1 for d in digits)

    def code(self, sigma: Sequence[int]) -> int:
        """The kernel code of an outcome: its lexicographic rank."""
        code = 0
        for bus in sigma:
            code = code * self.m + bus - 1
        return code

    def nash(self) -> tuple[int, tuple, tuple]:
        """(count, optimum, kept) of the Nash equilibria for every social function.

        With one shared pickup order (`lead` is 1) the scan covers only the
        outcomes with player 1 on bus 1. Relabeling buses maps equilibria to
        equilibria and keeps every value, so the count is m times the scanned
        one, and the first outcome of each relabeling orbit, where ties
        resolve, has player 1 on bus 1. The same holds for `optimum`.
        """
        _codes, count, optimum, kept = _kernel_py.scan_nash(self.n, self.m, self.dist, self.perms, FCODES, self.lead, False)
        return count * (self.m // self.lead), optimum, kept

    def nash_codes(self) -> list[int]:
        """Codes of every Nash equilibrium; collecting them scans all m^n outcomes."""
        return _kernel_py.scan_nash(self.n, self.m, self.dist, self.perms, (), self.m, True)[0]

    def optimum(self, fcodes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """(min, argmin) over all outcomes of each social function in `fcodes`."""
        return tuple(stats[:2] for stats in _kernel_py.scan_social(self.n, self.m, self.dist, self.perms, fcodes, self.lead))

    def stats(self, codes: Sequence[int], fcodes: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
        """(min, argmin, max, argmax) over `codes` of each social function in `fcodes`."""
        return _kernel_py.code_stats(self.n, self.m, self.dist, self.perms, fcodes, codes)

    def spe(self, order: Sequence[int], node_cap: int) -> list[int]:
        """Sorted codes of the SPE outcomes under the 1-based move `order`."""
        return _kernel_py.spe_codes(self.n, self.m, self.dist, self.perms, tuple(p - 1 for p in order), node_cap)

    def zermelo(self, order: Sequence[int]) -> int:
        """Code of the backward-induction outcome under the 1-based move `order`."""
        return _kernel_py.zermelo_code(self.n, self.m, self.dist, self.perms, tuple(p - 1 for p in order))


@lru_cache(maxsize=256)
def scaled_view(inst: Instance) -> ScaledView:
    flat = tuple(v for row in inst.rows for v in row)
    perms_flat = tuple(p - 1 for perm in inst.perms for p in perm)
    # Buses that share one pickup order can be relabeled without changing any
    # cost, so the scans need only the outcomes with player 1 on bus 1.
    lead = 1 if len(set(inst.perms)) == 1 else inst.m
    return ScaledView(inst.n, inst.m, inst.scale, flat, perms_flat, lead)


def outcome_space_size(inst: Instance) -> int:
    return inst.m**inst.n


def check_budget(n: int, m: int, budget: int) -> None:
    """Raise `BudgetExceededError` when the m^n outcomes of n players on m >= 2
    buses exceed `budget`.

    Past the bit length of `budget` players, m^n > budget without computing
    it. The message spells m^n out only while it has at most 4,300 digits, the
    most `str` converts by default.
    """
    if n <= budget.bit_length() and m**n <= budget:
        return
    count = f"{m}^{n} = {m**n}" if n < 4300 / math.log10(m) else f"{m}^{n}"
    raise BudgetExceededError(f"{count} outcomes exceed the budget of {budget}")


def view_within(inst: Instance, budget: int) -> ScaledView:
    """The scaled view of `inst`, once its m^n outcomes fit within `budget`."""
    check_budget(inst.n, inst.m, budget)
    return scaled_view(inst)


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
