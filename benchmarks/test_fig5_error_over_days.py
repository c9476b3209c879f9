"""Fig. 5: estimation error over days — ETA2 vs the four baselines."""

import numpy as np
import pytest

from repro.experiments import fig5_error_over_days


@pytest.mark.parametrize("dataset_name", ["survey", "sfv", "synthetic"])
def test_fig5_error_over_days(quick_config, dataset_name):
    result = fig5_error_over_days(dataset_name, quick_config)
    print()
    print(result.render())

    eta2 = np.asarray(result.series["ETA2"])
    # ETA2's error drops as expertise is learned (day 1 is the warm-up).
    assert eta2[-1] < eta2[0]

    # After the warm-up, ETA2 beats every baseline on average (the paper
    # reports 15-20% / 5-15% / ~20% margins on survey / SFV / synthetic).
    eta2_after = float(np.mean(eta2[1:]))
    for name, series in result.series.items():
        if name == "ETA2":
            continue
        baseline_after = float(np.mean(np.asarray(series)[1:]))
        assert eta2_after < baseline_after, (name, eta2_after, baseline_after)

    # The mean baseline never learns: it shows no comparable improvement.
    mean_series = np.asarray(result.series["baseline-mean"])
    assert mean_series[-1] > eta2[-1]
