"""ASCII rendering and curve-fitting helpers for the experiments.

The benchmarks do not compare absolute numbers against the paper (our
substrate differs); they check *shapes*.  The two fitters here extract
the shapes Table 1 talks about:

* :func:`fit_power_law` — slope ``b`` of ``y ~ a x^b`` (log-log least
  squares), e.g. the ``-1/2`` of the ``1/sqrt(n)`` decay;
* :func:`fit_exponential_rate` — rate ``c`` of ``y ~ a e^{c x}``
  (log-linear least squares), e.g. the ``e^{0.5 eps0}`` vs
  ``e^{3 eps0}`` exponents separating the mechanisms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

import numpy as np

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scenario.sweep import SweepResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as a fixed-width ASCII table."""
    materialized: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValidationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "+" + "+".join("-" * (width + 2) for width in widths) + "+"
    header_line = "|" + "|".join(
        f" {header.ljust(width)} " for header, width in zip(headers, widths)
    ) + "|"
    body = [
        "|" + "|".join(
            f" {cell.ljust(width)} " for cell, width in zip(row, widths)
        ) + "|"
        for row in materialized
    ]
    return "\n".join([line, header_line, line, *body, line])


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def sweep_table(
    result: "SweepResult",
    *,
    value_header: str = "central eps",
    precision: int = 4,
) -> str:
    """Render a :class:`~repro.scenario.sweep.SweepResult` as a table.

    One row per grid point in grid order: the axis coordinates followed
    by the point's central epsilon (the measured lower bound for audit
    sweeps).  The standard rendering for sweep-backed experiments and
    the CLI's accounting-mode sweeps.
    """
    names = list(result.axis)
    rows = []
    for point in result:
        epsilon = point.epsilon
        rows.append(
            (
                *[point.coordinates[name] for name in names],
                "-" if epsilon is None else round(epsilon, precision),
            )
        )
    return format_table([*names, value_header], rows)


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Fit ``y = a x^b``; returns ``(a, b)`` via log-log least squares."""
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.size != y_arr.size or x_arr.size < 2:
        raise ValidationError("need >= 2 matching points to fit")
    if np.any(x_arr <= 0) or np.any(y_arr <= 0):
        raise ValidationError("power-law fit requires positive data")
    slope, intercept = np.polyfit(np.log(x_arr), np.log(y_arr), 1)
    return float(np.exp(intercept)), float(slope)


def fit_exponential_rate(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Fit ``y = a e^{c x}``; returns ``(a, c)`` via log-linear least squares."""
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.size != y_arr.size or x_arr.size < 2:
        raise ValidationError("need >= 2 matching points to fit")
    if np.any(y_arr <= 0):
        raise ValidationError("exponential fit requires positive values")
    rate, intercept = np.polyfit(x_arr, np.log(y_arr), 1)
    return float(np.exp(intercept)), float(rate)
