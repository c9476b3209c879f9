"""Fig. 10: allocation cost of ETA2 vs ETA2-mc across tau."""

import numpy as np
import pytest

from repro.experiments import fig9_fig10_mincost_comparison


@pytest.mark.parametrize("dataset_name", ["synthetic", "sfv"])
def test_fig10_mincost_cost(quick_config, dataset_name):
    result = fig9_fig10_mincost_comparison(
        dataset_name,
        quick_config,
        taus=(10.0, 14.0),
        round_budgets=(40.0, 80.0),
    )
    print()
    print(result.render_costs())

    eta2_cost = np.asarray(result.cost_series["ETA2"])
    # The headline of Fig. 10: ETA2-mc recruits far fewer users.  The gap
    # depends on slack: with many users (synthetic) the saving is large;
    # with 18 heavily specialised users (SFV) the quality requirement
    # forces recruiting close to capacity before every confidence interval
    # narrows enough, so mc approaches (but never exceeds) ETA2's spend —
    # the paper's Fig. 10(b) shows the same compression.
    saving = 0.75 if dataset_name == "synthetic" else 1.0
    for name, series in result.cost_series.items():
        if name == "ETA2":
            continue
        mc_cost = np.asarray(series)
        assert np.all(mc_cost <= saving * eta2_cost), (name, mc_cost, eta2_cost)

    # ETA2 (capacity-filling) cost grows with tau; mc cost should not.
    assert eta2_cost[-1] > eta2_cost[0]
