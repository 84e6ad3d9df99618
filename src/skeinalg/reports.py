"""Report types shared by the positivity scans, certifications and
identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .laurent import Laurent

__all__ = [
    "VERDICT_POSITIVE",
    "VERDICT_VIOLATION",
    "Witness",
    "PositivityReport",
    "CheckReport",
    "Check",
    "run_check",
]

VERDICT_POSITIVE = "certified-positive-up-to-bound"
VERDICT_VIOLATION = "violation"


@dataclass(frozen=True, slots=True)
class Witness:
    """One offending structure constant: which product, which label, which
    coefficient.  A scan records thousands, so they carry no ``__dict__`` and
    may share their parts: the parts are immutable."""

    inputs: tuple[str, ...]
    label: str
    coeff: Laurent
    note: str = ""

    def to_json_obj(self) -> dict:
        obj = {
            "inputs": list(self.inputs),
            "label": self.label,
            "coeff": self.coeff.to_json_obj(),
        }
        if self.note:
            obj["note"] = self.note
        return obj


@dataclass
class PositivityReport:
    """A bounded positivity check: it passes when no witness was found."""

    surface: str
    sequence: str
    bound: int
    witnesses: list[Witness] = field(default_factory=list)
    q1: bool = False

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> str:
        return VERDICT_POSITIVE if self.passed else VERDICT_VIOLATION

    def first_witness(self) -> Witness | None:
        return self.witnesses[0] if self.witnesses else None

    def json_tree(self) -> dict:
        """The JSON form with the witnesses left as ``Witness`` objects, for an
        encoder whose ``default`` writes each through its ``to_json_obj``."""
        return {
            "surface": self.surface,
            "sequence": self.sequence,
            "bound": self.bound,
            "q1": self.q1,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }

    def to_json_obj(self) -> dict:
        obj = self.json_tree()
        obj["witnesses"] = [w.to_json_obj() for w in self.witnesses]
        return obj


@dataclass
class CheckReport:
    """Outcome of one identity check up to ``n_max``: the failure records,
    or for an observational check (which never fails) the rows it saw."""

    check: str
    n_max: int
    summary: str
    failures: list = field(default_factory=list)
    observations: list | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        obj = {"check": self.check, "n_max": self.n_max}
        if self.observations is not None:
            obj["observations"] = self.observations
        else:
            obj["passed"] = self.passed
            obj["failures"] = self.failures
        return obj


class Check(NamedTuple):
    """One row of a surface's check table: the least ``n_max`` whose index
    range holds an index that is not a seed both sides share (below it the
    check would pass vacuously), and ``run(n_max)``, which checks every
    index."""

    least_n_max: int
    run: Callable[[int], CheckReport]


def run_check(table: dict[str, Check], name: str, n_max: int) -> CheckReport:
    """Run the named check of ``table``; a range with no index is an error,
    never a vacuous pass."""
    row = table[name]
    if n_max < row.least_n_max:
        raise ValueError(f"--n-max must be at least {row.least_n_max}, got {n_max}")
    return row.run(n_max)
