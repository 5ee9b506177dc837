"""End-to-end acceptance suite: desk-scale reproduction of the study.

Each test is one acceptance criterion; `pytest -v` therefore prints one
PASS/FAIL line per criterion.  The two deliberately failing clauses
(criterion 3's Weibull error trend and criterion 5's overlay discrepancy)
are asserted as stated and fail honestly: under a correctly specified
two-parameter fit with the shift fixed at the threshold, the Weibull
bootstrap distribution becomes normal as n grows, so the degradation those
clauses demand does not occur.  See the failure messages for the measured
values.
"""

import json
import math
import time

import numpy as np
import pytest

from tailfit import (
    SeverityModel,
    cdf,
    ci_error_table,
    fisher_information,
    log_likelihood,
    mc_score_information,
    normality_suite,
    overlay,
    quantile,
    run_bootstrap,
    sample,
)
from tailfit.cli import main
from tailfit.mle import WEIBULL_INCONSISTENT, fit
from tailfit.normality import mardia_moments
from tailfit.optimizer import nelder_mead
from test_normality import brute_force_mardia

from conftest import TRUE_MODELS

pytestmark = pytest.mark.acceptance

T = 1e5


def frobenius_rel(est: np.ndarray, ana: np.ndarray) -> float:
    return float(np.linalg.norm(est - ana) / np.linalg.norm(ana))


def test_criterion_1_fisher_oracle_agreement():
    cases = [
        (SeverityModel("pareto", (1.11,), T), 0.02),
        (SeverityModel("lognormal", (11.3, 1.8), T), 0.02),
        (SeverityModel("loglogistic", (1.0, 84000.0), T), 0.02),
        (SeverityModel("weibull", (2.0, 2e5), T), 0.05),
        (SeverityModel("gb2", (1.0, 1.0, 1.0, 1.0), T), 0.05),
    ]
    failures = []
    for i, (model, tol) in enumerate(cases):
        est = mc_score_information(model, 200_000, np.random.default_rng(9100 + i))
        err = frobenius_rel(est.entries, fisher_information(model).entries)
        print(f"criterion 1: {model.family:12s} frobenius rel err {err:.4f} (tol {tol})")
        if err > tol:
            failures.append(f"{model.family}: {err:.4f} > {tol}")
    assert not failures, failures


def test_criterion_2_closed_form_vs_nelder_mead():
    worst = 0.0
    for i in range(50):
        xs = sample(SeverityModel("pareto", (1.11,), T), 200, np.random.default_rng(9200 + i))
        closed = fit("pareto", xs, T)

        def nll_p(theta, xs=xs, m=closed.model):
            return 1e10 if theta[0] <= 0 else -log_likelihood(m.replace_params(theta), xs)

        res = nelder_mead(nll_p, np.asarray(closed.model.params) * 1.3)
        worst = max(worst, abs(res.fmin - closed.nll))
    for i in range(50):
        xs = sample(SeverityModel("lognormal", (11.3, 1.8), T), 200,
                    np.random.default_rng(9250 + i))
        closed = fit("lognormal", xs, T)

        def nll_l(theta, xs=xs, m=closed.model):
            return 1e10 if theta[1] <= 0 else -log_likelihood(m.replace_params(theta), xs)

        res = nelder_mead(nll_l, np.asarray(closed.model.params) * np.array([1.2, 0.8]))
        worst = max(worst, abs(res.fmin - closed.nll))
    print(f"criterion 2: worst nll gap over 100 samples {worst:.3e} (tol 1e-6)")
    assert worst < 1e-6


def test_criterion_3_table3_reproduction(study_matrices):
    bms = [study_matrices[(fam, n)] for fam in TRUE_MODELS for n in (100, 2500)]
    rows = {(r.family, r.param_name, r.n): r.percent_error for r in ci_error_table(bms)}
    for key, err in sorted(rows.items()):
        print(f"criterion 3: {key[0]:12s} {key[1]:8s} n={key[2]:5d} err {err:7.2f}%")

    failures = []
    for fam, names in (("pareto", ("shape",)),
                       ("lognormal", ("meanlog", "sdlog")),
                       ("loglogistic", ("shape", "scale"))):
        for name in names:
            for n in (100, 2500):
                err = rows[(fam, name, n)]
                if abs(err) > 4.0:
                    failures.append(f"{fam}/{name} n={n}: |{err:.2f}| > 4")
    if abs(rows[("gb2", "shape1", 100)]) < 30.0:
        failures.append(f"gb2/shape1 n=100: |{rows[('gb2', 'shape1', 100)]:.2f}| < 30")
    for name in ("shape1", "scale", "shape2", "shape3"):
        err = rows[("gb2", name, 2500)]
        if abs(err) > 15.0:
            failures.append(f"gb2/{name} n=2500: |{err:.2f}| > 15")
    # paper's Table 3 shows Weibull scale error worsening from n=100 to n=2500
    w100, w2500 = rows[("weibull", "scale", 100)], rows[("weibull", "scale", 2500)]
    if not abs(w2500) > abs(w100):
        failures.append(
            f"weibull scale error trend: |{w2500:.2f}|% at n=2500 is not greater than "
            f"|{w100:.2f}|% at n=100 (paper: 9% -> 22%); the normal approximation "
            f"improves with n for the regular fixed-shift two-parameter fit"
        )
    assert not failures, failures


def test_criterion_4_tables_1_2_qualitative(study_matrices):
    reports = {}
    for fam in TRUE_MODELS:
        sizes = (100, 1000, 2500) if fam == "lognormal" else (100, 2500)
        for n in sizes:
            for r in normality_suite(study_matrices[(fam, n)]):
                reports[(fam, n, r.test)] = r.p_value
    for key, p in sorted(reports.items()):
        print(f"criterion 4: {key[0]:12s} n={key[1]:5d} {key[2]:16s} p {p:.4g}")
    failures = []
    for n in (100, 1000, 2500):
        if reports[("lognormal", n, "MardiaKurtosis")] <= 0.01:
            failures.append(f"lognormal kurtosis p at n={n} not > 0.01")
    if reports[("weibull", 100, "MardiaKurtosis")] >= 0.01:
        failures.append("weibull kurtosis p at n=100 not < 0.01")
    if reports[("pareto", 100, "AndersonDarling")] >= 0.01:
        failures.append("pareto AD p at n=100 not < 0.01")
    assert not failures, failures


def test_criterion_5_weibull_pathology(study_matrices):
    truth = SeverityModel("weibull", (0.56, 212303.18), T)
    missing_warnings = 0
    for rep in range(200):
        xs = sample(truth, 100, np.random.default_rng((95, rep)))
        res = fit("weibull", xs, T)
        if WEIBULL_INCONSISTENT not in res.warnings:
            missing_warnings += 1
    print(f"criterion 5: replications missing WeibullInconsistent: {missing_warnings}/200")
    assert missing_warnings == 0

    discs = {}
    bm = study_matrices[("weibull", 2500)]
    for j, name in enumerate(bm.param_names):
        ov = overlay(bm, j)
        discs[name] = float(np.max(np.abs(ov.kde - ov.normal_pdf)) / np.max(ov.normal_pdf))
        print(f"criterion 5: overlay {name} n=2500 max|kde-normal|/max(normal) "
              f"{discs[name]:.4f} (required > 0.2)")
    best = max(discs.values())
    assert best > 0.2, (
        f"overlay discrepancy at n=2500 is {best:.3f}, not > 0.2: the bootstrap "
        f"distribution of the fixed-shift Weibull MLE is close to its predicted "
        f"normal at n=2500 (Mardia skew p ~ 0.99), so the persistent-skew overlay "
        f"gap does not materialize"
    )


def test_criterion_6_mardia_brute_force_equivalence():
    rng = np.random.default_rng(9600)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(8, 201))
        k = int(rng.integers(2, 5))
        rows = rng.normal(size=(m, k)) @ (rng.normal(size=(k, k)) + np.eye(k))
        b1, b2 = mardia_moments(rows)
        ob1, ob2 = brute_force_mardia(rows)
        worst = max(worst,
                    abs(b1 - ob1) / max(1.0, abs(ob1)),
                    abs(b2 - ob2) / abs(ob2))
    print(f"criterion 6: worst relative deviation from double-loop oracle {worst:.3e}")
    assert worst < 1e-12


def test_criterion_7_cli_determinism(tmp_path):
    losses_out = tmp_path / "data"
    assert main(["generate", "--out", str(losses_out), "--seed", "901",
                 "--n", "20000"]) == 0
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "seed = 901\nthreshold = 1e5\nfamilies = pareto,lognormal\n"
        f"sample_sizes = 100\nreplications = 150\ninput = {losses_out / 'losses.csv'}\n"
    )
    outputs = {}
    for tag, threads in (("t1", 1), ("t1b", 1), ("t4", 4), ("t8", 8)):
        out = tmp_path / tag
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["bootstrap", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(out.glob("boot_*"))
        }
    baseline = outputs["t1"]
    assert set(baseline) == {"boot_pareto_n100.csv", "boot_pareto_n100.json",
                             "boot_lognormal_n100.csv", "boot_lognormal_n100.json"}
    for tag in ("t1b", "t4", "t8"):
        assert outputs[tag] == baseline, f"outputs differ between threads=1 and {tag}"
    print("criterion 7: bootstrap outputs byte-identical across reruns and threads 1/4/8")


def test_criterion_8_distribution_correctness():
    us = np.arange(0.005, 1.0, 0.005)
    for fam, model in TRUE_MODELS.items():
        gap = np.max(np.abs(cdf(model, quantile(model, us)) - us))
        assert gap <= 1e-9, f"{fam} round trip {gap:.2e}"

    g = SeverityModel("gb2", (1.0, 84000.0, 1.0, 1.0), T)
    l = SeverityModel("loglogistic", (1.0, 84000.0), T)
    x = np.geomspace(1.0001 * T, 1e9, 500)
    assert np.max(np.abs(cdf(g, x) - cdf(l, x))) < 1e-10
    assert np.max(np.abs(quantile(g, us) / quantile(l, us) - 1.0)) < 1e-10

    n = 100_000
    crit = 1.628 / math.sqrt(n)  # 1% level, one-sample KS
    for i, (fam, model) in enumerate(TRUE_MODELS.items()):
        xs = np.sort(sample(model, n, np.random.default_rng(9800 + i)))
        f = cdf(model, xs)
        ks = max(float(np.max(np.arange(1, n + 1) / n - f)),
                 float(np.max(f - np.arange(0, n) / n)))
        print(f"criterion 8: {fam:12s} KS {ks:.5f} (crit {crit:.5f})")
        assert ks < crit, f"{fam} sampler KS {ks:.5f} >= {crit:.5f}"


def test_criterion_9_performance_envelope(tmp_path):
    # Pareto-only column: all seven sample sizes at m=2,000, directly timed
    sizes = (100, 200, 300, 500, 1000, 1500, 2500)
    model = TRUE_MODELS["pareto"]
    t0 = time.perf_counter()
    for n in sizes:
        run_bootstrap(model, n, 2000, seed=99)
    pareto_elapsed = time.perf_counter() - t0
    print(f"criterion 9: pareto column at m=2000: {pareto_elapsed:.1f}s (budget 30s)")
    assert pareto_elapsed <= 30.0

    # Full pipeline bound: per-replication cost measured at the largest n,
    # extrapolated to 5 families x 7 sizes x m=2000 on 8 cores
    total = 0.0
    for fam, model in TRUE_MODELS.items():
        t0 = time.perf_counter()
        run_bootstrap(model, 2500, 10, seed=98)
        per_rep = (time.perf_counter() - t0) / 10.0
        total += per_rep * 2000 * len(sizes)
        print(f"criterion 9: {fam:12s} {per_rep * 1e3:7.1f} ms/replication at n=2500")
    projected = total / 8.0
    print(f"criterion 9: projected full pipeline on 8 cores {projected / 60.0:.1f} min "
          f"(budget 60 min; per-size costs bounded by the n=2500 cost)")
    assert projected <= 3600.0
