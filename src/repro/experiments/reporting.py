"""Plain-text reporting: tables and scatter plots for experiment output.

The paper's figures are scatter plots of estimated vs measured speedup
plus headline correlation/false-prediction numbers; these helpers
render the same content as monospace text so every experiment's output
is self-contained in a terminal or a log file.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def ascii_table(rows: Sequence[dict], title: str = "") -> str:
    """Render dict rows as an aligned monospace table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in cells))
        for i, c in enumerate(cols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(c).ljust(w) for c, w in zip(cols, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def text_scatter(
    predicted: np.ndarray,
    measured: np.ndarray,
    width: int = 56,
    height: int = 18,
    title: str = "",
    max_axis: Optional[float] = None,
) -> str:
    """ASCII scatter of predicted (y) vs measured (x) speedups.

    The diagonal marks perfect prediction; the ``1.0`` gridlines split
    the plane into the four decision quadrants (points left of x=1 but
    above y=1 are false positives, and so on).
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    ok = np.isfinite(predicted) & np.isfinite(measured)
    predicted, measured = predicted[ok], measured[ok]
    if len(measured) == 0:
        return "(no points)"
    hi = max_axis or float(max(predicted.max(), measured.max()) * 1.05)
    hi = max(hi, 2.0)
    grid = [[" "] * width for _ in range(height)]

    def col(x: float) -> int:
        return min(width - 1, max(0, int(x / hi * (width - 1))))

    def row(y: float) -> int:
        return min(height - 1, max(0, height - 1 - int(y / hi * (height - 1))))

    # diagonal and the decision gridlines first, points on top
    for c in range(width):
        x = c / (width - 1) * hi
        grid[row(x)][c] = "."
    one_c, one_r = col(1.0), row(1.0)
    for r in range(height):
        if grid[r][one_c] == " ":
            grid[r][one_c] = ":"
    for c in range(width):
        if grid[one_r][c] == " ":
            grid[one_r][c] = ":"
    for p, m in zip(predicted, measured):
        r, c = row(p), col(m)
        grid[r][c] = "o" if grid[r][c] in " .:" else "@"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"predicted ^ (axis 0..{hi:.1f})")
    lines.extend("".join(r) for r in grid)
    lines.append("-" * width + "> measured")
    return "\n".join(lines)


def fail_summary(failures: Sequence[tuple[str, str]]) -> str:
    counts: dict[str, int] = {}
    for _, reason in failures:
        counts[reason] = counts.get(reason, 0) + 1
    parts = [f"{reason}: {n}" for reason, n in sorted(counts.items())]
    return "; ".join(parts) if parts else "none"


def quarantine_summary(report) -> str:
    """One line for a sweep's :class:`~repro.pipeline.FailureReport`.

    ``"none"`` on a healthy sweep; otherwise the quarantined kernels
    with their attempt counts and last error, so a partial dataset's
    provenance survives into every experiment log.
    """
    if not report:
        return "none"
    parts = [
        f"{f.name} ({f.attempts} attempts: {f.error_chain[-1]})"
        for f in report.quarantined
    ]
    return f"{len(report)} quarantined — " + "; ".join(parts)
