"""Fig. 2: pooled observation errors follow the standard normal."""

import numpy as np

from repro.experiments import fig2_error_distribution


def test_fig2_error_distribution(quick_config):
    result = fig2_error_distribution(quick_config)
    print()
    print(result.render())

    for name in result.dataset_names:
        hist = result.histograms[name]
        # The histogram is a proper density over the plotted support...
        assert abs(hist.total_mass() - 1.0) < 1e-6
        # ...that hugs the N(0, 1) curve (the paper's visual claim).
        assert result.density_gaps[name] < 0.08, name
        # And it peaks near zero, like the standard normal.
        peak_center = hist.centers[int(np.argmax(hist.density))]
        assert abs(peak_center) < 0.75, name
