"""95% confidence-interval comparison: normal approximation vs. bootstrap
quantiles, reported as signed percent error per parameter and sample size.

Sign convention: percent_error = 100 * (normal_width - boot_width) / boot_width,
so positive entries mean the normal intervals are too wide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bootstrap import BootstrapMatrix, DegenerateCell
from .distributions import SeverityModel
from .fisher import asymptotic_covariance
from .special_functions import quantiles, std_normal_quantile
from .textio import json_text

__all__ = ["CiErrorRow", "normal_ci_width", "bootstrap_ci_width", "ci_error_table"]


@dataclass
class CiErrorRow:
    family: str
    param_name: str
    n: int
    boot_width: float
    normal_width: float
    percent_error: float


def normal_ci_width(model: SeverityModel, n: int, j: int, level: float = 0.95) -> float:
    """2 * z_{(1+level)/2} * sqrt((I^{-1})_jj / n)."""
    cov = asymptotic_covariance(model, n)
    z = std_normal_quantile(0.5 * (1.0 + level))
    return 2.0 * z * float(np.sqrt(cov[j, j]))


def bootstrap_ci_width(bm: BootstrapMatrix, j: int, level: float = 0.95) -> float:
    """Empirical quantile width with linear interpolation between order
    statistics (position h = (m - 1) u + 1), by `quantiles`, which equals
    np.quantile(method="linear") bit for bit."""
    bm.check_analysable()
    tail = 0.5 * (1.0 - level)
    lo, hi = quantiles(bm.rows[:, j], [tail, 1.0 - tail])
    return float(hi - lo)


def ci_error_table(bms: list[BootstrapMatrix], level: float = 0.95) -> list[CiErrorRow]:
    """One row per (matrix, parameter); DegenerateCell for a matrix under 100
    rows or a zero-width bootstrap interval."""
    rows = []
    for bm in bms:
        model = bm.true_model()
        for j, name in enumerate(bm.param_names):
            boot = bootstrap_ci_width(bm, j, level)
            if boot == 0.0:
                raise DegenerateCell(f"zero-width bootstrap interval for {name}")
            normal = normal_ci_width(model, bm.n, j, level)
            rows.append(CiErrorRow(
                family=bm.family,
                param_name=name,
                n=bm.n,
                boot_width=boot,
                normal_width=normal,
                percent_error=100.0 * (normal - boot) / boot,
            ))
    return rows


def table_csv(rows: list[CiErrorRow]) -> str:
    """Pivot: one line per (family, param), one column per sample size,
    integer-rounded percent cells."""
    sizes = sorted({r.n for r in rows})
    keys = []
    for r in rows:
        key = (r.family, r.param_name)
        if key not in keys:
            keys.append(key)
    cells = {(r.family, r.param_name, r.n): r.percent_error for r in rows}
    lines = ["family,param," + ",".join(str(n) for n in sizes)]
    for fam, name in keys:
        vals = []
        for n in sizes:
            e = cells.get((fam, name, n))
            vals.append("" if e is None else f"{round(e)}%")
        lines.append(f"{fam},{name}," + ",".join(vals))
    return "\n".join(lines) + "\n"


def table_json(rows: list[CiErrorRow]) -> str:
    payload = {
        "sign_convention": "percent_error = 100 * (normal_width - boot_width) / boot_width",
        "rows": [asdict(r) for r in rows],
    }
    return json_text(payload)
