"""Tests for batched accelerator runs and transfer accounting."""

import numpy as np
import pytest

from repro.analog.engine import AnalogAccelerator
from repro.pde.burgers import random_burgers_system


def make_batch(count, n=2, reynolds=1.0):
    systems, guesses = [], []
    for trial in range(count):
        system, guess = random_burgers_system(n, reynolds, np.random.default_rng(trial))
        systems.append(system)
        guesses.append(guess)
    return systems, guesses


class TestSolveBatch:
    def test_batch_solves_all_instances(self):
        systems, guesses = make_batch(3)
        accelerator = AnalogAccelerator(seed=0)
        results = accelerator.solve_batch(systems, guesses)
        assert len(results) == 3
        assert all(r.converged for r in results)

    def test_only_first_run_reconfigures(self):
        # Section 5.1: the configuration survives across instances of
        # the same kind of problem.
        systems, guesses = make_batch(3)
        results = AnalogAccelerator(seed=1).solve_batch(systems, guesses)
        assert results[0].reconfigured
        assert not results[1].reconfigured
        assert not results[2].reconfigured

    def test_transfer_accounting(self):
        systems, guesses = make_batch(2)
        results = AnalogAccelerator(seed=2, adc_repeats=4).solve_batch(systems, guesses)
        n = systems[0].dimension
        for result in results:
            # ICs + 4 constant DACs per variable in; repeats reads out.
            assert result.dac_writes == n + 4 * n
            assert result.adc_reads == n * 4

    def test_batch_matches_individual_solves(self):
        systems, guesses = make_batch(3)
        batch = AnalogAccelerator(seed=3).solve_batch(systems, guesses)
        # Sequential solves on one board draw the same run noise in the
        # same order: a batch differs only in keeping the configuration.
        accelerator = AnalogAccelerator(seed=3)
        singles = [
            accelerator.solve(system, initial_guess=guess)
            for system, guess in zip(systems, guesses)
        ]
        for pooled, single in zip(batch, singles):
            assert pooled.solution.tobytes() == single.solution.tobytes()
            assert pooled.scaled_solution.tobytes() == single.scaled_solution.tobytes()
            assert pooled.settle_time_units == single.settle_time_units
            assert pooled.seed_quality == single.seed_quality
            assert pooled.residual_norm == single.residual_norm

    def test_dimension_mismatch_rejected(self):
        sys_a, _ = random_burgers_system(2, 1.0, np.random.default_rng(0))
        sys_b, _ = random_burgers_system(3, 1.0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            AnalogAccelerator(seed=4).solve_batch([sys_a, sys_b])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            AnalogAccelerator(seed=5).solve_batch([])

    def test_guess_count_validated(self):
        systems, guesses = make_batch(2)
        with pytest.raises(ValueError):
            AnalogAccelerator(seed=6).solve_batch(systems, guesses[:1])
