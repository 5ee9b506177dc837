"""Per-layer metrics derived from a traced run's spans.

Every workload reports every name; a layer the workload does not reach
reads 0.  A `_s` metric is the total (inclusive) time of the calls unless its
name says `self`; `mle.fit_s.*` is the mle layer's self time: the fit bodies
plus the likelihood evaluations the optimizer calls back into.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import Tracer
from workloads import FAMILIES, STUDY_SIZES

NM = "optimizer.nelder_mead"
DROP_KINDS = ("degenerate", "no_convergence", "invalid_start", "not_converged")
NM_FAMILIES = ("loglogistic", "gb2")
REL_NLL_WIN = 1e-6


def _accepted(facts: dict) -> bool:
    """A start fit_gb2 keeps: converged, finite, strictly positive."""
    return bool(facts.get("converged")) and np.isfinite(facts["fmin"]) and facts["positive"]


def _rescaled_start_wins(fit_starts: list[list[dict]]) -> float:
    """Share of GB2 fits where a +-5% start beat the plain start by more than
    REL_NLL_WIN relative nll (or succeeded where the plain start did not)."""
    wins = 0
    for starts in fit_starts:
        plain, rescaled = starts[0], [s for s in starts[1:] if _accepted(s)]
        if not rescaled:
            continue
        best = min(s["fmin"] for s in rescaled)
        if not _accepted(plain) or best < plain["fmin"] - REL_NLL_WIN * max(1.0, abs(plain["fmin"])):
            wins += 1
    return wins / len(fit_starts) if fit_starts else 0.0


def _drop_kind(facts: dict, starts: list[dict]) -> str | None:
    """Why a bootstrap replication's fit was dropped, from the exception that
    left `mle.fit` and the optimizer runs under it; None if it was kept."""
    raised = facts.get("raised")
    if raised == "DegenerateSample":
        return "degenerate"
    if raised:
        if starts and all(s.get("invalid_start") for s in starts):
            return "invalid_start"
        return "no_convergence"
    return None if facts["converged"] else "not_converged"


def layer_metrics(tracer: Tracer, extras: dict[str, float], overhead: float) -> dict[str, float]:
    own = tracer.self_times()
    dur = tracer.durations()
    cell, root = tracer.contexts({"bootstrap.cell", "normality.normality_suite"})
    family, _ = tracer.contexts({"mle.fit"})

    total = defaultdict(float)        # inclusive seconds by name
    calls = defaultdict(int)
    by_cell = defaultdict(float)      # inclusive seconds by (name, cell)
    fit_ms = defaultdict(list)        # (family.n) -> fit durations
    mle_self = defaultdict(float)     # family -> self seconds
    mle_ingest = defaultdict(float)
    nm = defaultdict(lambda: [0, 0, 0])   # (family, cell or "ingest") -> calls, iterations, evals
    starts = defaultdict(list)        # fit span -> its optimizer runs, in start order
    dropped = dict.fromkeys(DROP_KINDS, 0)
    root_self = defaultdict(float)
    runs = capped = 0
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        total[name] += dur[i]
        calls[name] += 1
        by_cell[name, cell[i]] += dur[i]
        if parent < 0:
            root_self[name] += own[i]
        if name == "mle.fit" and cell[i]:
            fit_ms[cell[i]].append(1e3 * dur[i])
        if name in ("mle.fit", "mle.nll"):
            mle_self[family[i]] += own[i]
            if root[i] == "cli.fit":
                mle_ingest[family[i]] += own[i]
        if name == NM:
            facts = tracer.data[i]
            starts[parent].append(facts)
            if "iterations" not in facts:
                continue
            runs += 1
            capped += not facts["converged"]
            for key in (cell[i], "ingest" if root[i] == "cli.fit" else None):
                if key:
                    acc = nm[family[i], key]
                    acc[0] += 1
                    acc[1] += facts["iterations"]
                    acc[2] += facts["evals"]

    gb2_starts = []
    for i, name in enumerate(tracer.names):
        if name != "mle.fit":
            continue
        if family[i] == "gb2" and starts[i]:
            gb2_starts.append(starts[i])
        kind = _drop_kind(tracer.data[i], starts[i]) if cell[i] else None
        if kind:
            dropped[kind] += 1

    m: dict[str, float] = {}
    for f in FAMILIES:
        for n in STUDY_SIZES:
            m[f"bootstrap.cell_s.{f}.n{n}"] = by_cell["bootstrap.cell", f"{f}.n{n}"]
    m["distributions.sample_s"] = total["distributions.sample"]
    for f in FAMILIES:
        m[f"mle.fit_s.{f}"] = mle_self[f]
    for q in (50, 90):
        for f in FAMILIES:
            for n in STUDY_SIZES:
                d = fit_ms[f"{f}.n{n}"]
                m[f"mle.fit_ms_p{q}.{f}.n{n}"] = float(np.percentile(d, q)) if d else 0.0
    for k in DROP_KINDS:
        m[f"mle.dropped.{k}"] = float(dropped[k])
    for j, stat in enumerate(("calls", "iterations", "evals")):
        for f in NM_FAMILIES:
            for n in STUDY_SIZES:
                m[f"{NM}.{stat}.{f}.n{n}"] = float(nm[f, f"{f}.n{n}"][j])
    m[f"{NM}.capped_frac"] = capped / runs if runs else 0.0
    m[f"{NM}.self_s"] = sum(t for t, name in zip(own, tracer.names) if name == NM)
    m["mle.gb2.rescaled_start_wins"] = _rescaled_start_wins(gb2_starts)
    m["bootstrap.pool_speedup_2w"] = extras.get("bootstrap.pool_speedup_2w", 0.0)
    m["cli.write_matrix_s"] = total["cli.write_matrix"]

    m["cli.read_matrix_s"] = total["cli.read_matrix"]
    for f in FAMILIES:
        if f == "pareto":
            continue  # Pareto is tested by Anderson-Darling, not Mardia
        for n in STUDY_SIZES:
            m[f"normality.mardia_s.{f}.n{n}"] = by_cell["normality.mardia", f"{f}.n{n}"]
    m["normality.anderson_darling_s"] = total["normality.anderson_darling"]
    m["special_functions.std_normal_cdf.calls"] = float(calls["special_functions.std_normal_cdf"])
    m["fisher.asymptotic_covariance_s"] = total["fisher.asymptotic_covariance"]
    m["ci_analysis.ci_error_table_s"] = total["ci_analysis.ci_error_table"]
    m["density.kde_s"] = total["density.kde"]
    m["density.overlay_s"] = total["density.overlay"]
    m["cli.write_overlay_s"] = root_self["cli.overlays"]

    m["generate.generate_losses_s"] = total["generate.generate_losses"]
    q = "special_functions.std_normal_quantile"
    m[f"{q}.calls"] = float(calls[q])
    m[f"{q}.s"] = total[q]
    m["cli.write_losses_s"] = root_self["cli.generate"]
    m["cli.read_losses_s"] = total["cli.read_losses"]
    for f in FAMILIES:
        m[f"mle.fit_s.{f}.ingest"] = mle_ingest[f]
    for j, stat in ((1, "iterations"), (2, "evals")):
        for f in NM_FAMILIES:
            m[f"{NM}.{stat}.{f}.ingest"] = float(nm[f, "ingest"][j])

    m["trace.overhead_frac"] = overhead
    return m
