"""The result record returned by the check_* operations, and the order
axioms both valuation sides record on it."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

from .sieves import _bits


@dataclass
class Report:
    """Outcome of an exhaustive check.

    violations are mandatory failures; notes are informational findings
    (for example a unit-condition status that is legal to violate).
    Both lists are kept sorted so reports are deterministic.
    """

    title: str
    checks: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, passed: bool, message: Union[str, Callable[[], str]]) -> None:
        """Count one check; on failure keep the message, calling it first
        when it is a function, so passing checks format nothing."""
        self.checks += 1
        if not passed:
            self.violations.append(message() if callable(message) else message)

    def tally(self, checks: int, failures: Iterable[str]) -> None:
        """Count a batch of checks and keep the messages of those that
        failed; pass a generator so that passing checks format nothing."""
        self.checks += checks
        self.violations.extend(failures)

    def finish(self) -> "Report":
        self.violations.sort()
        self.notes.sort()
        return self

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"{self.title}: {self.checks} checks, {status}"]
        lines += [f"  violation: {v}" for v in self.violations]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


# Bounded: one table per block count b <= MAX_SPECTRUM and flag; a table
# holds the 3^b nested and 3^b disjoint pairs, 1 MB at b = 9.
@lru_cache(maxsize=20)
def _pair_table(b: int, distinct: bool) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The index pairs the order axioms visit on the 2^b elements of a
    Boolean algebra of b atoms, element x the union of the atoms j for
    which bit j of x is set: per element x, the elements y containing it,
    and those disjoint from it; y = x is left out when `distinct`.  Both
    come from one comparison of every pair in numpy, cut into rows."""
    import numpy as np

    masks = np.arange(1 << b)
    tables = []
    for pairs in ((masks[:, None] & ~masks) == 0, (masks[:, None] & masks) == 0):
        if distinct:
            np.fill_diagonal(pairs, False)
        ys = np.nonzero(pairs)[1].tolist()
        ends = np.cumsum(pairs.sum(axis=1)).tolist()
        tables.append(tuple(tuple(ys[start:end]) for start, end in zip([0] + ends, ends)))
    return tuple(tables)


def _check_order(report: Report, elements: Sequence[int], sieves: Sequence[int], true: Sequence[bool], distinct: bool) -> None:
    """Monotonicity and exclusivity, for both sides' valuation axioms, of a
    map from the 2^b elements of a Boolean algebra of b atoms (subset
    masks, element x the union of the atoms at the bits of x) to sieve
    masks, on ordered index pairs (x, y), all of them or, when `distinct`,
    those with x != y: x within y needs sieve x within sieve y, and x
    disjoint from y with x true needs y not true.  The pairs come from
    the `_pair_table` of b, so monotonicity visits the nested pairs only
    (3^b of the 4^b) and exclusivity the disjoint ones of true elements
    only."""
    within, disjoint = _pair_table(len(elements).bit_length() - 1, distinct)
    report.tally(sum(map(len, within)), (
        f"monotonicity fails for {list(_bits(elements[x]))} within {list(_bits(elements[y]))}"
        for x, ys in enumerate(within) for y in ys if sieves[x] & ~sieves[y]
    ))
    held = [x for x, t in enumerate(true) if t]
    report.tally(sum(len(disjoint[x]) for x in held), (
        f"exclusivity fails for disjoint {list(_bits(elements[x]))} / {list(_bits(elements[y]))}"
        for x in held for y in disjoint[x] if true[y]
    ))
