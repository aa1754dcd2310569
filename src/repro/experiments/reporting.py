"""Plain-text rendering of experiment results.

Results come out of :mod:`repro.experiments.tables` and ``figures`` as
``{row_label: {column_label: value}}``; :func:`format_table` renders
them as a GitHub-flavoured markdown table whose rows and columns keep
insertion order.  :func:`format_fit_report` renders one fit's engine
telemetry (:class:`~repro.engine.FitReport`) as a readable summary.
"""

from __future__ import annotations

from ..engine.report import FitReport

__all__ = ["format_table", "format_series", "format_fit_report"]


def format_table(
    results: dict[str, dict[str, float]],
    *,
    title: str = "",
    precision: int = 4,
    highlight_min: bool = True,
) -> str:
    """Render nested result dictionaries as a markdown table.

    Parameters
    ----------
    results:
        ``{row_label: {column_label: value}}``.
    title:
        Optional heading line.
    precision:
        Decimal places for float cells.
    highlight_min:
        Mark each row's minimum value with ``*`` (the winner per row).
    """
    if not results:
        return f"{title}\n(empty)" if title else "(empty)"
    columns: list[str] = []
    for row in results.values():
        for col in row:
            if col not in columns:
                columns.append(col)
    lines: list[str] = []
    if title:
        lines.append(title)
    header = "| dataset | " + " | ".join(columns) + " |"
    divider = "|---" * (len(columns) + 1) + "|"
    lines.append(header)
    lines.append(divider)
    for row_label, row in results.items():
        numeric = {c: v for c, v in row.items() if isinstance(v, (int, float))}
        best = min(numeric.values()) if (numeric and highlight_min) else None
        cells = []
        for col in columns:
            value = row.get(col)
            if value is None:
                cells.append("-")
            elif isinstance(value, float):
                text = f"{value:.{precision}f}"
                if best is not None and value == best:
                    text += "*"
                cells.append(text)
            else:
                cells.append(str(value))
        lines.append(f"| {row_label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_series(results: dict[str, float], *, title: str = "", precision: int = 4) -> str:
    """Render a flat ``{label: value}`` series as a two-column table."""
    rows = {label: {"value": value} for label, value in results.items()}
    return format_table(rows, title=title, precision=precision, highlight_min=False)


def format_fit_report(report: FitReport, *, title: str = "") -> str:
    """Render one fit's engine telemetry as a compact summary block."""
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"method={report.method or '?'}  iters={report.n_iter}  "
        f"converged={report.converged}  stop={report.stop_reason}"
    )
    if report.objective_history:
        lines.append(
            f"objective: first={report.objective_history[0]:.6g}  "
            f"final={report.final_objective:.6g}  "
            f"increases={report.n_increases}  monotone={report.is_monotone()}"
        )
    if report.wall_times:
        lines.append(
            f"time: total={report.total_seconds:.4f}s  "
            f"setup={report.setup_seconds:.4f}s  "
            f"per-iter={report.seconds_per_iteration:.3e}s"
        )
    if report.landmark_block_intact is not None:
        lines.append(f"landmark block intact: {report.landmark_block_intact}")
    for key, deltas in report.factor_deltas.items():
        if deltas:
            lines.append(f"delta[{key}]: final={deltas[-1]:.3e}  max={max(deltas):.3e}")
    return "\n".join(lines)
