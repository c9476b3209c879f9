"""Fig. 4: estimation error across the (alpha, gamma) parameter grid."""

import numpy as np
import pytest

from repro.experiments import fig4_parameter_sweep


@pytest.mark.parametrize("dataset_name", ["survey", "synthetic"])
def test_fig4_parameter_sweep(quick_config, dataset_name):
    result = fig4_parameter_sweep(
        dataset_name,
        quick_config,
        alphas=(0.1, 0.5, 0.9),
        gammas=(0.2, 0.3, 0.6),
    )
    print()
    print(result.render())

    errors = result.errors
    assert np.all(np.isfinite(errors))
    # The sweep is informative: parameter choice moves the error.
    assert float(np.nanmax(errors)) > float(np.nanmin(errors))
    alpha, gamma, best_error = result.best
    assert best_error == float(np.nanmin(errors))
    if dataset_name == "synthetic":
        # Domains are pre-known: gamma is not swept.
        assert result.gammas == ()
    else:
        # Over-aggressive merging (large gamma) hurts on text datasets:
        # the best gamma in our embedding geometry is not the largest one.
        assert gamma < 0.6
