"""ASCII line charts — terminal-native renderings of the paper figures.

The experiment modules return numeric series; this renderer draws them
as multi-series ASCII charts so ``python -m repro.experiments.figureN``
produces something that *looks* like the paper's figure, with no
plotting dependency.

Supports linear or log-scaled y axes (the paper's privacy figures are
log-y) and one marker character per series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError

#: Marker characters assigned to series in order.
_MARKERS = "*o+x#@%&"


@dataclass(frozen=True)
class Series:
    """One labeled curve."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or x.size == 0:
            raise ValidationError(
                f"series {self.label!r}: x and y must be equal-length "
                "non-empty 1-D arrays"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _scale(values: np.ndarray, low: float, high: float, size: int) -> np.ndarray:
    """Map values in [low, high] to integer cells [0, size-1]."""
    if high == low:
        return np.zeros(values.size, dtype=np.int64)
    positions = (values - low) / (high - low) * (size - 1)
    return np.clip(np.round(positions), 0, size - 1).astype(np.int64)


def ascii_chart(
    series: Sequence[Series],
    *,
    width: int = 64,
    height: int = 16,
    log_y: bool = False,
    title: Optional[str] = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render labeled series as an ASCII chart.

    Parameters
    ----------
    series:
        Curves to draw; each gets the next marker character.
    width, height:
        Plot-area size in characters.
    log_y:
        Plot ``log10(y)`` (all y must be positive).
    title, x_label, y_label:
        Annotations.
    """
    if not series:
        raise ValidationError("need at least one series")
    if width < 8 or height < 4:
        raise ValidationError("chart must be at least 8x4")

    all_x = np.concatenate([s.x for s in series])
    all_y = np.concatenate([s.y for s in series])
    if log_y:
        if np.any(all_y <= 0):
            raise ValidationError("log_y requires strictly positive y values")
        transform = np.log10
    else:
        transform = lambda v: np.asarray(v, dtype=np.float64)  # noqa: E731

    x_low, x_high = float(all_x.min()), float(all_x.max())
    y_values = transform(all_y)
    y_low, y_high = float(y_values.min()), float(y_values.max())

    grid = [[" "] * width for _ in range(height)]
    for index, curve in enumerate(series):
        marker = _MARKERS[index % len(_MARKERS)]
        columns = _scale(curve.x, x_low, x_high, width)
        rows = _scale(transform(curve.y), y_low, y_high, height)
        for column, row in zip(columns, rows):
            grid[height - 1 - int(row)][int(column)] = marker

    def y_tick(value: float) -> str:
        shown = 10**value if log_y else value
        return f"{shown:9.3g}"

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} ({'log' if log_y else 'linear'})")
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = y_tick(y_high)
        elif row_index == height - 1:
            prefix = y_tick(y_low)
        else:
            prefix = " " * 9
        lines.append(f"{prefix} |{''.join(row)}|")
    lines.append(" " * 9 + "+" + "-" * width + "+")
    lines.append(
        " " * 10 + f"{x_low:<.3g}".ljust(width - 8) + f"{x_high:>.6g}"
    )
    lines.append(" " * 10 + x_label)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)
