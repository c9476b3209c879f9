"""Extension benchmark: the paper's thesis on categorical answers.

The real SFV data is categorical (a slot value is right or wrong); the
paper coerces it to numbers.  This benchmark runs the day loop natively on
discrete answers and shows the same headline: modelling expertise per
domain (expertise-voting) beats per-user reliability (Dawid-Skene) beats
no modelling at all (majority vote).
"""

import numpy as np

from repro.experiments.categorical import categorical_comparison


def test_categorical_extension():
    result = categorical_comparison(replications=3, n_tasks=300, seed=2017)
    print()
    print(result.render())

    ev = np.asarray(result.accuracy_series["expertise-voting"])
    ds = np.asarray(result.accuracy_series["dawid-skene"])
    mv = np.asarray(result.accuracy_series["majority-vote"])

    # Post-warm-up: the domain-aware model dominates, and learns over days.
    assert float(np.mean(ev[1:])) > float(np.mean(ds[1:]))
    assert float(np.mean(ev[1:])) > float(np.mean(mv[1:]))
    assert ev[-1] > ev[0]
    # And it ends up identifying labels with high accuracy in absolute terms.
    assert ev[-1] > 0.85
