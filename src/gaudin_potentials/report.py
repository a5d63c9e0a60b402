"""Structured results for verification checks, shared by library and CLI."""

from __future__ import annotations


class CheckReport:
    """Outcome of one named check.

    A check counts its cases with `record`; `first_failure` holds the
    first counterexample as a small dict of printable values, and the
    check passes while there is none.  `details` carries check-specific
    extras (for example the computed locality constant).  `elapsed_s` is
    set by the runner that times the check.
    """

    details: dict | None = None
    elapsed_s: float = 0.0

    def __init__(self, name: str, cases_checked: int = 0, first_failure: dict | None = None) -> None:
        self.name = name
        self.cases_checked = cases_checked
        self.first_failure = first_failure

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def record(self, ok: bool, **context) -> None:
        self.cases_checked += 1
        if not ok and self.first_failure is None:
            self.first_failure = {k: str(v) for k, v in context.items()}

    def to_json_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "cases_checked": self.cases_checked,
            "first_failure": self.first_failure,
        }
        if self.details is not None:
            out["details"] = self.details
        out["elapsed_s"] = round(self.elapsed_s, 6)
        return out
