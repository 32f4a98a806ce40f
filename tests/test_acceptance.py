"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import dataclasses
import json
import sys
import time

import numpy as np
import pytest

from conftest import CRITERION_TASK, build_uniform_simulator
from reference_cmaes import reference_minimize
from test_predictive import StubSim, ensemble_of

from promptuq.abc_smc import (SmcConfig, abc_smc, distance_error_rate,
                              effective_sample_size, update_kernel_variance,
                              update_weights)
from promptuq.blackbox import LabeledSet, make_synthetic_task
from promptuq.cmaes import es_init, minimize
from promptuq.errors import AccessDeniedError
from promptuq.estimators import (EsConfig, GfviConfig, derive_seeds, elbo_estimate, ensemble_tune, gfvi_tune,
                                 kl_diag_gaussian_to_prior, point_estimate)
from promptuq.experiment import experiment_config_from_dict, run_experiment
from promptuq.predictive import predictive_from_labels, predictive_from_logits
from promptuq.prompt_space import PriorSpec, prior_log_density, sample_prior
from promptuq.protocol import ExternalSimulator
from promptuq.uqeval import (ece, oracle_lower_bound, risk_rejection_curve, score_rows,
                             selective_classification_eval)


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def sphere(x):
    return float(x @ x)


def rosenbrock(x):
    return float(sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
                     for i in range(len(x) - 1)))


def floored_log10(value):
    return np.log10(max(value, 1e-30))


def test_criterion_1_optimizer_correctness():
    t0 = time.time()
    ours_sphere = minimize(lambda xs: np.array([sphere(x) for x in xs]),
                           [es_init(np.full(5, 3.0), 1.0, 20, seed=2)], 300).best_loss[0]
    sphere_time = time.time() - t0
    t0 = time.time()
    ours_rosen = minimize(lambda xs: np.array([rosenbrock(x) for x in xs]),
                          [es_init(np.zeros(5), 0.5, 20, seed=2)], 300).best_loss[0]
    rosen_time = time.time() - t0

    ref_sphere = reference_minimize(sphere, np.full(5, 3.0), 1.0, 20, 300, seed=2)
    ref_rosen = reference_minimize(rosenbrock, np.zeros(5), 0.5, 20, 300, seed=2)

    ok = (ours_sphere < 1e-8 and ours_rosen < 1e-6
          and sphere_time < 5.0 and rosen_time < 5.0
          and ref_sphere < 1e-8 and ref_rosen < 1e-6
          and abs(floored_log10(ours_sphere) - floored_log10(ref_sphere)) <= 6
          and abs(floored_log10(ours_rosen) - floored_log10(ref_rosen)) <= 6)
    report(1, ok,
           f"sphere {ours_sphere:.2e} (ref {ref_sphere:.2e}, {sphere_time:.2f}s), "
           f"rosenbrock {ours_rosen:.2e} (ref {ref_rosen:.2e}, {rosen_time:.2f}s)")


def test_criterion_2_elbo_machinery():
    sim = build_uniform_simulator()
    dataset = LabeledSet(np.random.default_rng(0).normal(size=(4, 4)),
                         np.zeros(4, dtype=np.int64))
    prior = PriorSpec(4, 50.0)

    at_prior = (np.zeros((1, 4)), np.full((1, 4), 2 * np.log(prior.sigma)))
    elbo = elbo_estimate(*at_prior, sim, dataset, prior, mc_samples=10,
                         streams=[np.random.default_rng(1)])[0]
    elbo_ok = abs(elbo - (-4 * np.log(2))) < 1e-9

    p1 = PriorSpec(1, 3.0)
    s2 = p1.sigma ** 2
    kl_values = (
        kl_diag_gaussian_to_prior(np.zeros((1, 1)), np.array([[np.log(s2)]]), p1)[0],
        kl_diag_gaussian_to_prior(np.array([[p1.sigma]]), np.array([[np.log(s2)]]), p1)[0],
        kl_diag_gaussian_to_prior(np.zeros((1, 1)), np.array([[np.log(s2 * np.e)]]), p1)[0],
    )
    targets = (0.0, 0.5, (np.e - 2) / 2)
    kl_ok = all(abs(a - b) < 1e-12 for a, b in zip(kl_values, targets))

    wins = 0
    worst_time = 0.0
    for seed in range(10):
        t0 = time.time()
        result = gfvi_tune(sim, dataset, prior, GfviConfig(mc_samples=10,
                                                          sample_count=100), seed=seed)
        worst_time = max(worst_time, time.time() - t0)
        wins += result.diagnostics["final_kl"] < 0.5
    gfvi_ok = wins >= 9 and worst_time < 60.0

    report(2, elbo_ok and kl_ok and gfvi_ok,
           f"elbo at prior {elbo:.9f}, kl values {tuple(round(v, 6) for v in kl_values)}, "
           f"gfvi KL<0.5 in {wins}/10 seeds (worst run {worst_time:.1f}s)")


def test_criterion_3_abc_smc_contract(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    t0 = time.time()
    result = abc_smc(sim, criterion_task.prior, criterion_task.train,
                     SmcConfig(), seed=4)
    elapsed = time.time() - t0

    eps = result.trace["epsilon"]
    trace_ok = all(eps[t] == eps[0] - t / 32 for t in range(len(eps)))

    final_eps = result.diagnostics["final_epsilon"]
    recheck_ok = all(
        distance_error_rate(sim.query_labels(z, criterion_task.train.X),
                            criterion_task.train.y) <= final_eps
        for z in result.samples)

    logits_blocked = False
    try:
        sim.query_logits(np.zeros(8), criterion_task.train.X[:1])
    except AccessDeniedError:
        logits_blocked = True

    ok = (trace_ok and recheck_ok and logits_blocked
          and result.size == 100 and elapsed < 60.0)
    report(3, ok,
           f"S={result.size}, eps {eps[0]:.5f}->{final_eps:.5f} exact schedule, "
           f"all particles recheck, labels-only enforced, {elapsed:.1f}s")


def test_criterion_4_posterior_usefulness(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    baseline = np.mean([
        distance_error_rate(sim.query_labels(z, criterion_task.train.X),
                            criterion_task.train.y)
        for z in sample_prior(criterion_task.prior, 100,
                              np.random.default_rng(12345))])
    wins = 0
    errors = []
    for seed in range(10):
        result = abc_smc(sim, criterion_task.prior, criterion_task.train,
                         SmcConfig(), seed=seed)
        table = predictive_from_labels(result, sim, criterion_task.train.X)
        err = float(np.mean(table.predicted() != criterion_task.train.y))
        errors.append(err)
        wins += err <= baseline - 0.1
    report(4, wins >= 8,
           f"prior baseline {baseline:.3f}, posterior train errors "
           f"{[round(e, 3) for e in errors]}, wins {wins}/10")


def test_criterion_5_weight_machinery(criterion_task):
    rng_master = np.random.default_rng(6)
    mixture_ok = True
    for _ in range(100):
        seed = int(rng_master.integers(2 ** 32))
        rng = np.random.default_rng(seed)
        prior = PriorSpec(3, float(rng.uniform(1, 10)))
        prev = rng.normal(size=(5, 3)) * prior.sigma
        new = prev[rng.integers(5, size=5)] + rng.normal(size=(5, 3))
        prev_w = rng.dirichlet(np.ones(5))
        var = rng.uniform(0.2, 3.0, size=3)
        ours = update_weights(new, prev, prev_w, var, prior)
        brute = []
        for z in new:
            mix = sum(w * np.prod(np.exp(-0.5 * (z - zp) ** 2 / var)
                                  / np.sqrt(2 * np.pi * var))
                      for w, zp in zip(prev_w, prev))
            brute.append(np.exp(prior_log_density(prior, z)) / mix)
        brute = np.array(brute)
        brute /= brute.sum()
        if not np.allclose(ours, brute, rtol=1e-8, atol=0):
            mixture_ok = False

    variance_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        particles = rng.normal(size=(8, 4)) * 10
        weights = rng.dirichlet(np.ones(8))
        mean = weights @ particles
        direct = weights @ (particles - mean) ** 2
        ours = update_kernel_variance(particles, weights, 1e-12)
        if np.abs(ours - np.maximum(direct, 1e-12)).max() > 1e-10:
            variance_ok = False

    sim = criterion_task.simulator(allow_logits=False)
    uniform_cfg = SmcConfig(sample_count=40, smc_iterations=4,
                            weight_scheme="uniform")
    uniform = abc_smc(sim, criterion_task.prior, criterion_task.train, uniform_cfg,
                      seed=0)
    uniform_ok = all(ess == pytest.approx(40.0, rel=1e-12)
                     for ess in uniform.trace["ess"])

    importance_cfg = SmcConfig(sample_count=40, smc_iterations=4,
                               weight_scheme="importance")
    degenerate = 0
    for seed in range(10):
        result = abc_smc(sim, criterion_task.prior, criterion_task.train,
                         importance_cfg, seed=seed)
        if (result.diagnostics["iterations"] >= 2
                and effective_sample_size(result.weights) < 40.0 - 1e-9):
            degenerate += 1
    importance_ok = degenerate >= 8

    ok = mixture_ok and variance_ok and uniform_ok and importance_ok
    report(5, ok,
           f"mixture oracle 1e-8 rel: {mixture_ok}, variance 1e-10: {variance_ok}, "
           f"uniform ESS=S: {uniform_ok}, importance ESS<S in {degenerate}/10 runs")


def test_criterion_6_indicator_estimator_exact():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        classes = int(rng.integers(2, 5))
        labels = rng.integers(classes, size=size)
        weights = rng.dirichlet(np.ones(size))
        sim = StubSim(classes, label_rows={i: int(labels[i]) for i in range(size)})
        table = predictive_from_labels(ensemble_of(range(size), weights), sim,
                                       np.zeros((1, 2)))
        expected = np.zeros(classes)
        for s in range(size):
            expected[labels[s]] += weights[s]
        worst = max(worst, float(np.abs(table.probs[0] - expected).max()))
    report(6, worst < 1e-12,
           f"1000 random instances, worst deviation from enumeration {worst:.2e}")


def test_criterion_7_metric_exactness():
    unit_ok = (
        score_rows(np.array([1.0, 0.0])[None], "entropy")[0] == 0.0
        and abs(score_rows(np.array([0.5, 0.5])[None], "entropy")[0] - np.log(2)) < 1e-12
        and abs(score_rows(np.array([0.75, 0.25])[None], "entropy")[0]
                - (-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))) < 1e-12
        and score_rows(np.array([0.0, 1.0])[None], "maxp")[0] == 0.0
        and abs(score_rows(np.full(4, 0.25)[None], "maxp")[0] - 0.75) < 1e-12
        and ece(np.eye(2)[np.array([0, 1])], np.array([0, 1])) == 0.0
        and abs(ece(np.array([[0.6, 0.4], [0.6, 0.4]]), np.array([0, 1])) - 0.1)
        < 1e-12)

    pattern_ok = True
    for n in (5, 50, 500):
        flags = np.concatenate([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
        curve = risk_rejection_curve(np.where(flags, 100.0, 0.0), flags)
        if abs(curve.risks[int(0.4 * n)] - 0.375) > 1e-12:
            pattern_ok = False

    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(100):
        m = int(rng.integers(2, 40))
        flags = rng.random(m) < rng.uniform(0.1, 0.9)
        bound = oracle_lower_bound(flags)
        if bound > risk_rejection_curve(rng.normal(size=m), flags).aurrrc + 1e-12:
            violations += 1

    report(7, unit_ok and pattern_ok and violations == 0,
           f"unit metric values exact, oracle 0.375 point holds for N in (5,50,500), "
           f"lower-bound violations {violations}/100")


def test_criterion_8_ensemble_vs_point_trend():
    wins = 0
    margins = []
    es = EsConfig(population_size=20, max_generations=300)
    for seed in range(10):
        cfg = dataclasses.replace(CRITERION_TASK, subspace_dim=16, prompt_dim=128,
                                  n_test=256, label_noise=0.1, seed=100 + seed)
        task = make_synthetic_task(cfg)
        sim = task.simulator()
        point = point_estimate(sim, task.train, task.prior, es, seed=seed)
        ensemble = ensemble_tune(sim, task.train, task.prior, es,
                                 seeds=derive_seeds(seed, 10))
        point_table = predictive_from_logits(point, sim, task.test.X)
        ens_table = predictive_from_logits(ensemble, sim, task.test.X)
        point_aurrrc = selective_classification_eval(
            point_table.probs, task.test.y, "entropy").aurrrc
        ens_aurrrc = selective_classification_eval(
            ens_table.probs, task.test.y, "entropy").aurrrc
        margins.append(point_aurrrc - ens_aurrrc)
        wins += ens_aurrrc <= point_aurrrc
    report(8, wins >= 7,
           f"ensembles <= point AURRRC in {wins}/10 seeds (10% label noise, "
           f"mean margin {np.mean(margins):+.4f})")


def test_criterion_9_protocol_fidelity(criterion_task, tmp_path):
    from promptuq.blackbox import task_config_to_dict

    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task_config_to_dict(CRITERION_TASK)))
    local = criterion_task.simulator()
    client = ExternalSimulator.spawn(
        [sys.executable, "-m", "promptuq", "serve", "--task", str(task_path)])
    rng = np.random.default_rng(9)
    worst = 0.0
    labels_equal = True
    try:
        for _ in range(500):
            z = rng.normal(size=8) * 50
            x = rng.normal(size=(int(rng.integers(1, 4)), 16))
            worst = max(worst, float(np.abs(
                client.query_logits(z, x) - local.query_logits(z, x)).max()))
        for _ in range(500):
            z = rng.normal(size=8) * 50
            x = rng.normal(size=(int(rng.integers(1, 4)), 16))
            if not np.array_equal(client.query_labels(z, x),
                                  local.query_labels(z, x)):
                labels_equal = False
    finally:
        client.close()
    report(9, worst < 1e-9 and labels_equal,
           f"1000 served queries: worst logits gap {worst:.2e}, labels identical: "
           f"{labels_equal}")


def test_criterion_10_experiment_determinism(tmp_path):
    payload = {
        "task": {"subspace_dim": 8, "prompt_dim": 64, "feature_dim": 16,
                 "classes": 2, "hidden": 32, "n_train": 32, "n_test": 48,
                 "n_ood": 32, "ood_shift": 2.0, "seed": 7},
        "method": "abc_smc", "seed": 11,
        "params": {"sample_count": 50, "smc_iterations": 5},
    }
    config = experiment_config_from_dict(payload)
    first = run_experiment(config, str(tmp_path / "a"), trace=True)
    second = run_experiment(config, str(tmp_path / "b"), trace=True)

    identical = True
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in names:
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            identical = False
    report(10, identical and first.summary == second.summary,
           f"two runs, byte-identical artifacts: {names}")
