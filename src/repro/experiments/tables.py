"""Plain-text table rendering for the experiment harness.

Every experiment prints its results through :func:`format_table`, so
harness output looks uniform whether it is run from an example script, a
test, or ``python -m repro.experiments.runner``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "print_table", "sparkline"]

#: Eight-level block characters for text sparklines.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as a fixed-width text table.

    Numbers are formatted compactly (floats to 4 significant digits);
    column widths adapt to content.
    """
    rendered: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        rendered.append([_render_cell(cell) for cell in row])

    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> None:
    """``format_table`` straight to stdout."""
    print(format_table(headers, rows, title))
    print()


def sparkline(values: Sequence[float], width: int = 72) -> str:
    """Render a series as a unicode block sparkline.

    Long series are bucket-averaged down to ``width`` characters, so a
    queue trace of tens of thousands of samples fits one terminal line.
    Degenerate (constant) series render at the lowest level.
    """
    if len(values) == 0:
        return ""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    series = [float(v) for v in values]
    if len(series) > width:
        bucket = len(series) / width
        series = [
            sum(series[int(i * bucket): max(int((i + 1) * bucket), int(i * bucket) + 1)])
            / max(int((i + 1) * bucket) - int(i * bucket), 1)
            for i in range(width)
        ]
    lo, hi = min(series), max(series)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(series)
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    return "".join(
        _SPARK_LEVELS[int(round((v - lo) * scale))] for v in series
    )


def _render_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
