"""Fig. 6: estimation error vs. average processing capability tau."""

import numpy as np
import pytest

from repro.experiments import fig6_capability_sweep


@pytest.mark.parametrize("dataset_name", ["survey", "synthetic"])
def test_fig6_capability_sweep(quick_config, dataset_name):
    result = fig6_capability_sweep(
        dataset_name,
        quick_config,
        taus=(8.0, 12.0, 16.0),
    )
    print()
    print(result.render())

    eta2 = np.asarray(result.series["ETA2"])
    # More capability -> more observers per task -> lower error.
    assert eta2[-1] < eta2[0]

    # At moderate-to-large tau ETA2 outperforms every baseline (the paper
    # allows baselines to win at very small tau, where expertise cannot be
    # estimated from the few observations).
    for name, series in result.series.items():
        if name == "ETA2":
            continue
        assert eta2[-1] < series[-1], name
        assert eta2[1] < series[1], name
