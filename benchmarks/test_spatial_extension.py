"""Extension benchmark: travel-aware allocation in a spatial city.

The paper's model charges every user the same processing time; in a city a
task costs sensing time plus travel.  With the allocation core generalised
to per-pair times, a travel-aware Algorithm 1 covers (nearly) the whole
city and satisfies far more tasks than a planner that budgets sensing time
only and abandons its overflow at execution time.
"""

import numpy as np

from repro.experiments.spatial import spatial_comparison


def test_spatial_extension():
    result = spatial_comparison(speeds=(2.0, 4.0, 8.0), replications=3, seed=2017)
    print()
    print(result.render())

    aware_quality = np.asarray(result.quality_series["travel-aware"])
    oblivious_quality = np.asarray(result.quality_series["travel-oblivious"])
    # The headline: travel-awareness dominates at every speed, by a wide
    # margin when travel is slow.
    assert np.all(aware_quality > oblivious_quality)
    assert aware_quality[0] > 1.5 * oblivious_quality[0]

    # Mechanism checks: the aware plan executes fully and covers the city;
    # the oblivious plan is heavily truncated at low speed.
    assert np.all(np.asarray(result.completion_series["travel-aware"]) > 0.999)
    assert np.all(np.asarray(result.coverage_series["travel-aware"]) > 0.9)
    assert result.completion_series["travel-oblivious"][0] < 0.5

    # Both planners improve as travel gets faster.
    assert aware_quality[-1] >= aware_quality[0]
    assert oblivious_quality[-1] >= oblivious_quality[0]
