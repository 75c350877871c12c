"""Two oracles for raysched.stochastic.mc_randomized_schedule_detail:
the sort-based Monte Carlo below, and E[D] in closed form
(``exact_d_mean``).

The Monte Carlo is the estimator as it was before the queried
problem's slot became the rank of its key: each trial's permutation is
the argsort of its row of keys, and the slot is where problem 0 sits in
it.  The draws, their order and every other float operation are the
package's, so the rows must agree with the package's to the last bit.
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
        # Past 2^256 the sample is scaled by a power of two, which changes
        # no bit of its standard error but keeps the squares in range.
        scale = max(0, math.frexp(float(sample.max()))[1] - 256)
        stderr = (
            math.ldexp(float(np.std(np.ldexp(sample, -scale), ddof=1)
                             / math.sqrt(trials)), scale)
            if trials > 1 else 0.0
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


def exact_d_mean(n: int, b: float, k: int, delta: float) -> float:
    """E[D] at query time t = (b^k - 1)/(b - 1) b^delta, exactly.

    The running-run index is k for epsilon <= delta and k-1 otherwise,
    and the queried problem's staleness s is uniform on {0..n-1} and
    independent of epsilon, so D = b^(index - 1 - s + epsilon) and

        E[D] = (1/n) sum_{s<n} b^-s (b^(k-1)(b^delta - 1)
                                     + b^(k-2)(b - b^delta)) / ln b.
    """
    b_delta = b**delta
    run_integral = b ** (k - 1) * (b_delta - 1.0) + b ** (k - 2) * (b - b_delta)
    return math.fsum(b**-s for s in range(n)) * run_integral / (n * math.log(b))
