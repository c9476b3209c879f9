"""Fig. 7: observation error shrinks as user expertise grows."""

import numpy as np

from repro.experiments import fig7_expertise_vs_error


def test_fig7_expertise_vs_error(quick_config):
    result = fig7_expertise_vs_error(quick_config, dataset_name="sfv")
    print()
    print(result.render())

    medians = [stats.median for stats in result.boxplots if stats.count > 0]
    assert len(medians) >= 3
    # Clear downward trend: the highest-expertise bin's median error is a
    # small fraction of the lowest bin's (the paper: near zero above u = 2).
    assert medians[-1] < 0.5 * medians[0]
    # And the trend is monotone when smoothed over adjacent bins.
    pairs = list(zip(medians, medians[1:]))
    decreasing = sum(1 for a, b in pairs if b <= a + 1e-9)
    assert decreasing >= len(pairs) - 1
