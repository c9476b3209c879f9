"""Fig. 9: estimation error of ETA2 vs ETA2-mc across tau."""

import numpy as np
import pytest

from repro.experiments import fig9_fig10_mincost_comparison


@pytest.mark.parametrize("dataset_name", ["synthetic", "survey"])
def test_fig9_mincost_error(quick_config, dataset_name):
    result = fig9_fig10_mincost_comparison(
        dataset_name,
        quick_config,
        taus=(10.0, 14.0),
        round_budgets=(40.0, 80.0),
    )
    print()
    print(result.render_errors())

    eta2 = np.asarray(result.error_series["ETA2"])
    for name, series in result.error_series.items():
        if name == "ETA2":
            continue
        mc = np.asarray(series)
        # ETA2-mc targets the quality requirement, not the minimum error:
        # its error may sit above ETA2's but stays in the requirement's
        # neighbourhood (eps_bar = 0.5), not at baseline-mean levels.
        assert np.all(np.isfinite(mc))
        assert float(np.max(mc)) < 2.0 * result.error_limit, name
        # And max-quality ETA2 is never (meaningfully) worse than mc.
        assert float(np.mean(eta2)) <= float(np.mean(mc)) + 0.05, name
