"""Small result record returned by the check_* operations."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union


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
