"""Programmatic validation of the paper's quantitative claims.

Turns the reproduction's acceptance criteria into data: each
:class:`Claim` names a sentence from the paper, how we operationalise
it, and the measurement; :func:`validate_all` runs the evaluation
matrix once and grades every claim.  The CLI (``python -m repro
claims``) and the claims bench both print the resulting scorecard,
which is the machine-checked version of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime import RunSpec
from .experiment import (APP_PRESSURES, DEFAULT_SCALE, resolve_cells,
                         sweep_specs)
from .figures import figure_series
from .report import format_table

__all__ = ["Claim", "validate_all", "render_scorecard"]


@dataclass
class Claim:
    claim: str
    source: str
    expected: str
    measured: str
    passed: bool


def _rel(series: dict, label: str) -> float:
    return series["relative_total"][label]


def validate_all(scale: float = DEFAULT_SCALE) -> list[Claim]:
    """Run the matrix and grade every claim.  Returns the scorecard.

    Every cell the claims read (each app's sweep, plus em3d's CC-NUMA
    at 10% and 90%) resolves in one :func:`resolve_cells` call.
    """
    sweeps = {app: sweep_specs(app, scale=scale) for app in APP_PRESSURES}
    em3d_cc = [RunSpec("em3d", "CCNUMA", p, scale) for p in (0.1, 0.9)]
    results = resolve_cells([spec for cells in sweeps.values()
                             for spec in cells.values()] + em3d_cc)
    series = {app: figure_series(app, scale, {key: results[spec]
                                              for key, spec in cells.items()})
              for app, cells in sweeps.items()}
    claims: list[Claim] = []

    def add(claim, source, expected, measured, passed):
        claims.append(Claim(claim, source, expected, measured, passed))

    # 1. CC-NUMA is pressure-insensitive.
    lo, hi = (results[spec].aggregate().total_cycles() for spec in em3d_cc)
    drift = abs(lo - hi) / lo
    add("CC-NUMA is not affected by memory pressure", "Section 5",
        "drift < 1%", f"drift {drift:.2%}", drift < 0.01)

    # 2. AS-COMA == S-COMA at low pressure.
    for app in ("em3d", "radix", "barnes", "lu"):
        p0 = APP_PRESSURES[app][0]
        a = _rel(series[app], f"ASCOMA({int(p0*100)}%)")
        s = _rel(series[app], f"SCOMA({int(p0*100)}%)")
        add(f"AS-COMA performs like pure S-COMA at low pressure ({app})",
            "Section 3", "within 5%", f"AS-COMA {a:.2f} vs S-COMA {s:.2f}",
            abs(a - s) / s < 0.05)

    # 3. S-COMA and AS-COMA beat CC-NUMA at low pressure by ~30-62%.
    for app in ("em3d", "radix", "barnes", "lu"):
        p0 = APP_PRESSURES[app][0]
        a = _rel(series[app], f"ASCOMA({int(p0*100)}%)")
        add(f"AS-COMA outperforms CC-NUMA by 30-62% at low pressure ({app})",
            "Section 5.1", "rel < 0.80", f"rel {a:.2f}", a < 0.80)

    # 4. Pure S-COMA degrades dramatically at high pressure.
    for app, pressure in (("em3d", 0.9), ("radix", 0.3)):
        v = _rel(series[app], f"SCOMA({int(pressure*100)}%)")
        add(f"pure S-COMA collapses under pressure ({app} at"
            f" {pressure:.0%})", "Section 5.2", "rel > 2.0", f"rel {v:.2f}",
            v > 2.0)

    # 5. R-NUMA drops below CC-NUMA at high pressure on thrashy apps.
    for app in ("em3d", "radix"):
        p = max(APP_PRESSURES[app])
        v = _rel(series[app], f"RNUMA({int(p*100)}%)")
        add(f"R-NUMA falls behind CC-NUMA when thrashing ({app} at"
            f" {p:.0%})", "Section 5.2", "rel > 1.05", f"rel {v:.2f}",
            v > 1.05)

    # 6. AS-COMA converges to CC-NUMA at extreme pressure.
    worst = 0.0
    for app in APP_PRESSURES:
        p = max(APP_PRESSURES[app])
        worst = max(worst, _rel(series[app], f"ASCOMA({int(p*100)}%)"))
    add("AS-COMA at worst underperforms CC-NUMA by a few percent",
        "Abstract / Section 6", "worst rel < 1.08", f"worst rel {worst:.2f}",
        worst < 1.08)

    # 7. AS-COMA beats the other hybrids at high pressure.
    for app in ("em3d", "radix", "barnes"):
        p = max(APP_PRESSURES[app])
        a = _rel(series[app], f"ASCOMA({int(p*100)}%)")
        r = _rel(series[app], f"RNUMA({int(p*100)}%)")
        v = _rel(series[app], f"VCNUMA({int(p*100)}%)")
        add(f"AS-COMA <= VC-NUMA <= R-NUMA at high pressure ({app})",
            "Section 5.2", "ordering holds",
            f"AS {a:.2f} <= VC {v:.2f} <= R {r:.2f}",
            a <= v + 0.02 and v <= r + 0.02)

    # 8. The S-COMA-first allocation win on radix.
    a = _rel(series["radix"], "ASCOMA(10%)")
    r = _rel(series["radix"], "RNUMA(10%)")
    add("AS-COMA outperforms R-NUMA/VC-NUMA at 10% pressure on radix"
        " (paper: ~17%)", "Section 5.1", "gap > 10%",
        f"gap {(r - a) / r:.0%}", (r - a) / r > 0.10)

    # 9. lu: every architecture beats CC-NUMA at every pressure.
    lu_ok = all(v < 1.0 for label, v in
                series["lu"]["relative_total"].items() if label != "CCNUMA")
    add("lu: all architectures (even pure S-COMA at 90%) beat CC-NUMA",
        "Section 5.2", "all rel < 1.0",
        f"max rel {max(v for lab, v in series['lu']['relative_total'].items() if lab != 'CCNUMA'):.2f}",
        lu_ok)

    # 10. fft/ocean: hybrids within a few percent of CC-NUMA.
    for app in ("fft", "ocean"):
        vals = [v for label, v in series[app]["relative_total"].items()
                if label.startswith(("RNUMA", "VCNUMA", "ASCOMA"))]
        add(f"{app}: hybrids within a few % of CC-NUMA at all pressures",
            "Section 5.2", "all in [0.85, 1.10]",
            f"range [{min(vals):.2f}, {max(vals):.2f}]",
            min(vals) > 0.85 and max(vals) < 1.10)

    return claims


def render_scorecard(claims: list[Claim]) -> str:
    rows = [[("PASS" if c.passed else "FAIL"), c.claim, c.expected,
             c.measured] for c in claims]
    passed = sum(c.passed for c in claims)
    table = format_table(["", "Claim (paper source in EXPERIMENTS.md)",
                          "Expected", "Measured"], rows,
                         title="Paper-claim scorecard")
    return table + f"\n\n{passed}/{len(claims)} claims reproduced"
