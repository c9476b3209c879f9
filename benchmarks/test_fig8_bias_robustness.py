"""Fig. 8: robustness of ETA2 to non-normal (uniform) observation noise."""

import numpy as np

from repro.experiments import fig8_bias_robustness


def test_fig8_bias_robustness(quick_config):
    result = fig8_bias_robustness(
        quick_config,
        bias_fractions=(0.0, 0.25, 0.5, 0.75),
    )
    print()
    print(result.render())

    errors = np.asarray(result.errors)
    assert np.all(np.isfinite(errors))
    # The paper's claim: error stays consistently low with only a slight
    # increase as normality is violated.  Allow a modest degradation but no
    # blow-up relative to the clean setting.
    assert errors[-1] < 2.0 * errors[0]
    assert float(np.max(errors)) < 0.6
