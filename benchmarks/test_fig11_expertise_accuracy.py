"""Fig. 11: accuracy of expertise estimation on the synthetic dataset."""

import numpy as np

from repro.experiments import fig11_expertise_accuracy


def test_fig11_expertise_accuracy(quick_config):
    result = fig11_expertise_accuracy(
        quick_config,
        taus=(6.0, 12.0, 18.0),
    )
    print()
    print(result.render())

    errors = np.asarray(result.expertise_errors)
    assert np.all(np.isfinite(errors))
    # More capability -> more observations per (user, domain) -> better
    # expertise estimates (the paper's Fig. 11 shows a steady decline).
    assert errors[-1] < errors[0]
    # Synthetic expertise lives in [0, 3]; a mean absolute error near or
    # above 1 would mean the estimates carry no signal.
    assert errors[-1] < 0.8
