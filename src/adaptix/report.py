"""Validation report containers.

Assumption checks are identified by short ids (B1.1 through B4.2). Each
check yields a verdict plus enough detail to audit it: sampled grids are
recorded in ``detail``, counterexamples in ``witness``. A check that could
not run (missing inputs) reports ``not_checked`` rather than silently
passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
NOT_CHECKED = "not_checked"

#: Every id a full problem validation must cover, exactly once.
FULL_CHECK_IDS = (
    "B1.1", "B1.2",
    "B2.1", "B2.2", "B2.3",
    "B3.1a", "B3.1b", "B3.1c", "B3.1d", "B3.2", "B3.3", "B3.4",
    "B4.1", "B4.2",
)


def _recordable(witness):
    """``witness`` with each non-finite float as its string, e.g. "-inf"."""
    if isinstance(witness, dict):
        return {key: _recordable(value) for key, value in witness.items()}
    if isinstance(witness, list):
        return [_recordable(value) for value in witness]
    if isinstance(witness, float) and not math.isfinite(witness):
        return str(witness)
    return witness


@dataclass(frozen=True)
class ValidationItem:
    check_id: str
    verdict: str  # pass | fail | not_checked
    detail: str = ""
    witness: object = None

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, NOT_CHECKED):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class ValidationReport:
    items: list[ValidationItem] = field(default_factory=list)

    def add(self, check_id, verdict, detail="", witness=None):
        self.items.append(ValidationItem(check_id, verdict, detail,
                                         _recordable(witness)))

    def verdict(self, check_id) -> str:
        return self[check_id].verdict

    def __getitem__(self, check_id) -> ValidationItem:
        for item in self.items:
            if item.check_id == check_id:
                return item
        raise KeyError(check_id)

    def __iter__(self):
        return iter(self.items)

    @property
    def failed_ids(self) -> list[str]:
        return [i.check_id for i in self.items if i.verdict == FAIL]

    @property
    def all_pass(self) -> bool:
        """True when no item failed (not_checked items do not fail)."""
        return not self.failed_ids

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        self.items.extend(other.items)
        return self
