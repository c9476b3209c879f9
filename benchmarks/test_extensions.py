"""Extension benchmarks: features beyond the paper's evaluation.

1. **Drift x decay** — the paper motivates the decay factor alpha (Eqs. 7-8)
   by "undermining the influence of historical tasks" but never tests a
   non-stationary world.  We drift the hidden expertise with a per-day
   random walk and measure how alpha handles it: with drift, full memory
   (alpha = 1) tracks worse than decayed memory.
2. **Exploration** — the Algorithm 1 greedy is purely exploitative; an
   epsilon-greedy exploration budget improves specialist identification on
   the strongly specialised SFV dataset without giving up estimation error.
"""

import numpy as np

from repro.datasets import sfv_dataset, synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach
from repro.simulation.metrics import match_domains


def test_extension_drift_vs_decay():
    def run():
        results = {}
        for alpha in (0.1, 0.5, 1.0):
            errors = []
            for seed in (1, 2, 3):
                dataset = synthetic_dataset(n_users=50, n_tasks=400, seed=seed)
                config = SimulationConfig(n_days=8, seed=seed, drift_rate=0.35)
                result = run_simulation(dataset, ETA2Approach(alpha=alpha), config)
                # Late days only: drift has accumulated by then.
                errors.append(float(np.nanmean(result.errors_by_day()[4:])))
            results[alpha] = float(np.mean(errors))
        return results

    errors = run()
    print(f"\nlate-day error under expertise drift, by alpha: {errors}")
    # Under drift, remembering everything forever (alpha = 1) must not beat
    # a decayed memory: stale evidence mis-ranks users whose skill moved.
    best_decayed = min(errors[0.1], errors[0.5])
    assert best_decayed <= errors[1.0] * 1.05


def test_extension_exploration_identifies_specialists():
    def specialists_found(exploration_rate, seed):
        dataset = sfv_dataset(seed=seed)
        config = SimulationConfig(n_days=6, seed=seed)
        approach = ETA2Approach(gamma=0.3, alpha=0.1, exploration_rate=exploration_rate)
        result = run_simulation(dataset, approach, config)
        true_domains = dataset.world().true_domains()[result.processed_task_order]
        mapping = match_domains(result.task_domain_labels, true_domains)
        true_expertise = dataset.world().true_expertise_matrix()
        qualities = []
        for discovered, true_domain in mapping.items():
            estimated = result.expertise_snapshot[discovered]
            top = np.argsort(-estimated)[:3]
            qualities.append(float(np.mean(true_expertise[top, true_domain])))
        return float(np.mean(qualities)), result.mean_estimation_error

    def run():
        rows = {}
        for rate in (0.0, 0.2):
            quality, error = zip(*(specialists_found(rate, seed) for seed in (3, 4, 5)))
            rows[rate] = (float(np.mean(quality)), float(np.mean(error)))
        return rows

    rows = run()
    print("\nexploration rate -> (true expertise of chosen top-3, estimation error):")
    for rate, (quality, error) in rows.items():
        print(f"  {rate:.1f} -> ({quality:.2f}, {error:.3f})")
    # Exploration should not collapse estimation quality...
    assert rows[0.2][1] < rows[0.0][1] * 1.4
    # ...and the chosen specialists must stay well above the population mean
    # expertise (~1.1 for the SFV generator).
    assert rows[0.2][0] > 1.4
