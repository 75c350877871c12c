"""Sort-based Monte Carlo of the randomized schedule, the oracle for
raysched.stochastic.mc_randomized_schedule_detail.

This is the estimator as it was before the queried problem's slot
became the rank of its key: each trial's permutation is the argsort of
its row of keys, and the slot is where problem 0 sits in it.  The draws,
their order and every other float operation are the package's, so the
rows must agree with the package's to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from raysched.stochastic import RandomizedScheduleParams


def mc_randomized_schedule_detail(
    params: RandomizedScheduleParams, trials: int, seed: int
) -> list[dict]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, b = params.n, params.b
    rows: list[dict] = []
    for idx, (k, delta) in enumerate(params.t_grid):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        )
        t = params.query_time(k, delta)
        strata = np.arange(trials) % params.epsilon_grid_size
        eps = (strata + rng.random(trials)) / params.epsilon_grid_size
        # Finish of run j is b^eps (b^j - 1)/(b - 1); the number of
        # completed runs l satisfies finish(l) <= t < finish(l+1).
        finish_k = b**eps * (b**k - 1.0) / (b - 1.0)
        run_index = np.where(finish_k <= t, k, k - 1)
        finish_l = b**eps * (b ** run_index.astype(float) - 1.0) / (b - 1.0)
        finish_next = b**eps * (b ** (run_index + 1.0) - 1.0) / (b - 1.0)
        if not bool(np.all((finish_l <= t) & (t < finish_next))):
            raise AssertionError(
                "running-run index fell outside {k-1, k} at "
                f"grid point (k={k}, delta={delta})"
            )
        perms = np.argsort(rng.random((trials, n)), axis=1)
        slot_of_queried = np.argmax(perms == 0, axis=1)
        staleness = (run_index - 1 - slot_of_queried) % n
        last_index = run_index - 1 - staleness
        sample = b ** (last_index + eps)
        mean = float(np.mean(sample))
        stderr = (
            float(np.std(sample, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        )
        rows.append(
            {
                "k": k,
                "delta": delta,
                "t": t,
                "d_mean": mean,
                "d_stderr": stderr,
                "ratio": t / mean,
            }
        )
    return rows
