"""Plain-text / markdown table rendering and bench-trace summarization."""

from __future__ import annotations

import numpy as np

from repro.pram.ledger import RoundMark


def expand_rounds(round_log, label: str) -> list:
    """The cumulative ledger work at the start of each ``label`` round,
    one entry per round.

    A mark whose index jumps by ``count`` over the label's previous
    mark (the first mark counts from 0) stands for ``count`` rounds, all
    starting at its work: the ``count − 1`` skipped ones did no work
    (:meth:`repro.pram.ledger.CostLedger.bump_rounds`). ``round_log``
    holds :class:`repro.pram.ledger.RoundMark` entries; bare
    ``(label, index, work, wall)`` tuples are also accepted.
    """
    works: list = []
    last = 0
    for mark in map(RoundMark.coerce, round_log):
        if mark.label == label:
            works.extend([mark.work] * max(mark.index - last, 1))
            last = mark.index
    return works


def summarize_rounds(round_log, label: str, final_work: float) -> dict:
    """Compress a ledger round trace into fixed-size summary stats.

    Raw per-round sample lists grow with the instance (hundreds of
    rounds at 100k clients) and dominate committed bench JSON size; the
    summary keeps the trajectory's shape — how much a round costs at
    the start vs. the end of the run — in O(1) space:
    ``{rounds, work_total, work_first, work_last, work_median}``.
    Runs of skipped rounds count one by one (:func:`expand_rounds`).
    """
    marks = expand_rounds(round_log, label)
    if not marks:
        return {"rounds": 0}
    deltas = np.diff(np.asarray(marks + [final_work]))
    return {
        "rounds": len(marks),
        "work_total": float(deltas.sum()),
        "work_first": float(deltas[0]),
        "work_last": float(deltas[-1]),
        "work_median": float(np.median(deltas)),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_markdown_table(rows: list, columns: list) -> str:
    """Render dict rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)
    ]
    def line(values):
        return "| " + " | ".join(v.ljust(w) for v, w in zip(values, widths)) + " |"
    out = [line([str(c) for c in columns])]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    out.extend(line(r) for r in cells)
    return "\n".join(out)
