"""Terminal log-log scatter plots for the Appendix-D figures.

The paper's Figures 8-12 are log-log scatter/line plots; in a
terminal-first reproduction the same data renders as a character
raster.  Multiple series overlay with distinct glyphs, axes carry
decade tick labels, and the whole thing needs nothing but a monospace
font.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["loglog_plot"]

_GLYPHS = "ox+*#@%"


def loglog_plot(
    series: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    width: int = 64,
    height: int = 20,
    title: Optional[str] = None,
) -> str:
    """Render named (x, y) series on log-log axes.

    Points with non-positive coordinates are dropped (log axes).  The
    legend maps glyphs to series names.  Raises on empty input.
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 16 or height < 6:
        raise ValueError("canvas too small")

    cleaned = []
    for name, x, y in series:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        mask = (x > 0) & (y > 0)
        if mask.any():
            cleaned.append((name, x[mask], y[mask]))
    if not cleaned:
        raise ValueError("no positive points to plot")

    x_lo = min(float(x.min()) for _n, x, _y in cleaned)
    x_hi = max(float(x.max()) for _n, x, _y in cleaned)
    y_lo = min(float(y.min()) for _n, _x, y in cleaned)
    y_hi = max(float(y.max()) for _n, _x, y in cleaned)
    # Degenerate ranges get a decade of headroom.
    if x_lo == x_hi:
        x_hi = x_lo * 10
    if y_lo == y_hi:
        y_hi = y_lo * 10

    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, x, y) in enumerate(cleaned):
        glyph = _GLYPHS[idx % len(_GLYPHS)]
        cols = np.clip(
            ((np.log10(x) - lx_lo) / (lx_hi - lx_lo) * (width - 1)).round().astype(int),
            0,
            width - 1,
        )
        rows = np.clip(
            ((np.log10(y) - ly_lo) / (ly_hi - ly_lo) * (height - 1)).round().astype(int),
            0,
            height - 1,
        )
        for c, r in zip(cols.tolist(), rows.tolist()):
            grid[height - 1 - r][c] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    label_hi = f"{y_hi:.0e}"
    label_lo = f"{y_lo:.0e}"
    margin = max(len(label_hi), len(label_lo))
    for r, row in enumerate(grid):
        label = label_hi if r == 0 else (label_lo if r == height - 1 else "")
        lines.append(f"{label:>{margin}} |" + "".join(row))
    lines.append(" " * margin + " +" + "-" * width)
    x_left = f"{x_lo:.0e}"
    x_right = f"{x_hi:.0e}"
    pad = width - len(x_left) - len(x_right)
    lines.append(" " * (margin + 2) + x_left + " " * max(1, pad) + x_right)
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {name}" for i, (name, _x, _y) in enumerate(cleaned)
    )
    lines.append(" " * (margin + 2) + legend)
    return "\n".join(lines)
