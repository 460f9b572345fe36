"""The one report type and the one diff core every verify harness uses.

Each harness (:mod:`~repro.verify.parity`, :mod:`~repro.verify.chaos`,
:mod:`~repro.verify.online`, :mod:`~repro.verify.sharded`,
:mod:`~repro.verify.layers`) compares some engine against an oracle and
files what it finds into a :class:`Report`: the run's header lines, its
machine-readable ``facts``, and named sections of divergence lines.  The
rule "a run is ok iff no section holds a line" and the
``… FAILED — N divergence(s):`` rendering live here and nowhere else, as
do the structural diffs (:func:`diff_mapping`, :func:`diff_rows`) and
the :data:`DIFF_LIMIT` they elide at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["DIFF_LIMIT", "Report", "diff_mapping", "diff_rows", "elide"]

DIFF_LIMIT = 4  # listed per-item mismatches before eliding


@dataclass
class Report:
    """Outcome of one verify run.

    ``sections`` maps a check's name to its divergence lines, each line
    self-describing (the harness that files it adds the context); a side
    condition a run must meet — a typed failure, a planned SIGKILL — is a
    divergence line like any other.  ``counterexample`` (when shrinking
    was requested) is a minimal comment list that still diverges.
    """

    #: Verdict prefix, e.g. ``"PARITY"`` → ``PARITY OK`` / ``PARITY FAILED``.
    verdict: str
    #: What an ok run established, appended to the ``OK`` line.
    agreement: str
    header: list[str]
    facts: dict[str, Any] = field(default_factory=dict)
    sections: dict[str, list[str]] = field(default_factory=dict)
    counterexample: list[tuple] | None = None

    @property
    def divergences(self) -> tuple[str, ...]:
        """Every divergence line, section by section."""
        return tuple(d for lines in self.sections.values() for d in lines)

    @property
    def ok(self) -> bool:
        """Whether no section holds a divergence line."""
        return not self.divergences

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = list(self.header)
        divergences = self.divergences
        if not divergences:
            detail = f" — {self.agreement}" if self.agreement else ""
            lines.append(f"  {self.verdict} OK{detail}")
            return "\n".join(lines)
        lines.append(
            f"  {self.verdict} FAILED — {len(divergences)} divergence(s):"
        )
        lines += [f"    - {d}" for d in divergences]
        if self.counterexample is not None:
            lines.append(
                f"  minimal counterexample ({len(self.counterexample)} "
                "comment(s)):"
            )
            lines += [f"    {c!r}" for c in self.counterexample[:20]]
        return "\n".join(lines)


def elide(items: Sequence[Any]) -> str:
    """The first :data:`DIFF_LIMIT` *items* joined, then how many more."""
    shown = ", ".join(str(i) for i in items[:DIFF_LIMIT])
    more = len(items) - DIFF_LIMIT
    return shown + (f" (+{more} more)" if more > 0 else "")


def diff_mapping(kind: str, ref: Mapping, got: Mapping) -> list[str]:
    """Entry-level diff of *got* against *ref*: missing, extra and
    changed keys on one line (``[]`` when equal)."""
    if ref == got:
        return []
    parts = []
    missing = sorted(k for k in ref if k not in got)
    if missing:
        parts.append(f"missing: {elide([repr(k) for k in missing])}")
    extra = sorted(k for k in got if k not in ref)
    if extra:
        parts.append(f"extra: {elide([repr(k) for k in extra])}")
    changed = sorted(k for k in ref if k in got and ref[k] != got[k])
    if changed:
        detail = [f"{k!r}: {got[k]!r} != {ref[k]!r}" for k in changed]
        parts.append(f"changed: {elide(detail)}")
    return [f"{kind}: {'; '.join(parts)}"]


def diff_rows(kind: str, ref: Sequence, got: Sequence) -> list[str]:
    """Position-by-position diff of two row lists (``[]`` when equal)."""
    if ref == got:
        return []
    if len(ref) != len(got):
        return [f"{kind}: {len(got)} rows != {len(ref)}"]
    bad = [
        f"row {i}: {g!r} != {r!r}"
        for i, (r, g) in enumerate(zip(ref, got))
        if r != g
    ]
    return [f"{kind}: {len(bad)} row mismatch(es) — {elide(bad)}"]
