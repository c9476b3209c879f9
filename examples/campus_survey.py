"""Campus-survey scenario: ETA2 vs the reliability baselines on text tasks.

This is the paper's motivating workload: short natural-language questions
("What is the noise level around the municipal building?") answered by a
student population whose members are knowledgeable about *some* topics.
ETA2 must (1) cluster the questions into expertise domains from the text
alone, (2) learn per-student per-domain expertise, and (3) route questions
to the right students.

Run with::

    python examples/campus_survey.py
"""

import numpy as np

from repro.datasets import survey_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach
from repro.truthdiscovery import AverageLog, HubsAuthorities, TruthFinder

N_DAYS = 5
SEED = 2017


def main():
    dataset = survey_dataset(seed=SEED)
    print(f"survey dataset: {dataset.n_users} participants, {dataset.n_tasks} questions")
    print("sample questions:")
    for description in dataset.descriptions()[:3]:
        print(f"  - {description}")
    print()

    approaches = [
        ETA2Approach(gamma=0.3, alpha=0.5),
        ReliabilityApproach(HubsAuthorities()),
        ReliabilityApproach(AverageLog()),
        ReliabilityApproach(TruthFinder()),
        MeanApproach(),
    ]

    config = SimulationConfig(n_days=N_DAYS, seed=SEED)
    header = f"{'approach':<18}" + "".join(f"  day{d + 1:>2}" for d in range(N_DAYS)) + "   mean"
    print(header)
    print("-" * len(header))
    eta2_result = None
    for approach in approaches:
        result = run_simulation(dataset, approach, config)
        errors = result.errors_by_day()
        row = f"{result.approach_name:<18}" + "".join(f"  {e:5.3f}" for e in errors)
        print(row + f"  {result.mean_estimation_error:5.3f}")
        if result.approach_name == "ETA2":
            eta2_result = result

    # Peek inside ETA2: how many expertise domains did the clustering find?
    labels = eta2_result.task_domain_labels
    discovered = len(set(labels.tolist()))
    print(f"\nETA2 discovered {discovered} expertise domains "
          f"(generator used {dataset.n_true_domains} topical domains)")


if __name__ == "__main__":
    main()
