"""Experiment harness: the paper's evaluation matrix, tables and figures."""

from .experiment import (APP_PRESSURES, ARCHITECTURES, DEFAULT_SCALE,
                         SCALED_POLICY_KWARGS, get_workload, run_app,
                         run_pressure_sweep, scaled_policy, sweep_specs)
from .claims import Claim, render_scorecard, validate_all
from .crossover import crossover_report, find_crossover, relative_time_at
from .figures import FIGURE_APPS, export_csv, figure_series, render_figure
from .pagereport import hot_page_report, render_hot_pages
from .parallel import matrix_specs
from .svg import figure_svg, render_stacked_svg
from .report import format_stacked_bars, format_table
from .tables import (render_table1, render_table2, render_table3,
                     render_table4, render_table5, render_table6, table1,
                     table2, table3, table4, table5, table6)

__all__ = [
    "APP_PRESSURES",
    "Claim",
    "crossover_report",
    "find_crossover",
    "relative_time_at",
    "ARCHITECTURES",
    "DEFAULT_SCALE",
    "FIGURE_APPS",
    "export_csv",
    "figure_svg",
    "render_stacked_svg",
    "SCALED_POLICY_KWARGS",
    "figure_series",
    "format_stacked_bars",
    "format_table",
    "get_workload",
    "render_figure",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_scorecard",
    "hot_page_report",
    "matrix_specs",
    "render_hot_pages",
    "run_app",
    "run_pressure_sweep",
    "validate_all",
    "scaled_policy",
    "sweep_specs",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]
