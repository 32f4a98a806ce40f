"""The one-slot-at-a-time ABC-SMC loop, used only as an oracle in tests.

Each particle slot runs its own attempt loop in slot order: one
``stream.choice`` resample and one single-z labels query per attempt. The
package runs the same draws in lock-step rounds, one query per round, and
must reproduce this loop's particles, weights, trace, diagnostics and budget
use bit for bit. Only the attempt loop is transcribed here; the tolerance,
weight and kernel helpers are the package's own.
"""

import numpy as np

from promptuq.abc_smc import (WEIGHT_IMPORTANCE, _nonzero, _slot_stream, decay_tolerance,
                              distance_error_rate, effective_sample_size,
                              initial_tolerance, update_kernel_variance, update_weights)
from promptuq.errors import StagnationError
from promptuq.estimators import ABC_SMC, PosteriorEnsemble
from promptuq.prompt_space import sample_prior


def reference_abc_smc(sim, prior, dataset, config, seed):
    size = config.sample_count
    budget_before = calls_before = sim.budget.used
    trace = {"iteration": [], "epsilon": [], "ess": [], "total_attempts": [],
             "simulator_calls": []}
    initial_epsilon = epsilon = _nonzero(initial_tolerance(sim, prior, dataset,
                                                           _slot_stream(seed, 0, 0)))
    total_attempts = 0
    for t in range(1, config.smc_iterations + 1):
        if t > 1:
            next_epsilon = decay_tolerance(epsilon, len(dataset))
            if next_epsilon == 0.0:
                break
            epsilon = next_epsilon
            kernel_sd = np.sqrt(kernel_variance)

        new_particles = np.empty((size, prior.dim))
        iter_attempts = 0
        for s in range(size):
            stream = _slot_stream(seed, t, s)
            for attempt in range(1, config.max_attempts + 1):
                if t == 1:
                    z = sample_prior(prior, 1, stream)[0]
                else:
                    pick = stream.choice(size, p=weights)
                    z = particles[pick] + kernel_sd * stream.standard_normal(prior.dim)
                distance = distance_error_rate(sim.query_labels(z, dataset.X)[None],
                                               dataset.y)[0]
                if distance < epsilon or (t > 1 and distance == epsilon):
                    new_particles[s] = z
                    iter_attempts += attempt
                    break
            else:
                raise StagnationError(
                    f"particle {s} found no proposal within epsilon {epsilon} in "
                    f"{config.max_attempts} attempts (iteration {t})")

        if t > 1 and config.weight_scheme == WEIGHT_IMPORTANCE:
            weights = update_weights(new_particles, particles, weights,
                                     kernel_variance, prior)
        else:
            weights = np.full(size, 1.0 / size)
        particles = new_particles
        kernel_variance = update_kernel_variance(particles, weights,
                                                 config.variance_floor)
        total_attempts += iter_attempts
        trace["iteration"].append(t)
        trace["epsilon"].append(epsilon)
        trace["ess"].append(effective_sample_size(weights))
        trace["total_attempts"].append(iter_attempts)
        trace["simulator_calls"].append(sim.budget.used - calls_before)
        calls_before = sim.budget.used

    return PosteriorEnsemble(
        particles, weights, ABC_SMC,
        diagnostics={"final_epsilon": float(epsilon),
                     "initial_epsilon": float(initial_epsilon),
                     "ess": effective_sample_size(weights),
                     "iterations": float(len(trace["iteration"])),
                     "total_attempts": float(total_attempts),
                     "simulator_calls": float(sim.budget.used - budget_before)},
        trace=trace)
