"""Extension benchmark: quality-aware incentives close the effort loop.

The paper's fixed per-task payment is accuracy-blind; with strategic users
that means slacking dominates and the collected data is junk that no truth
analysis can repair.  An accuracy bonus (audited against the server's own
final estimates) makes high effort individually rational for skilled users,
and ETA2's expertise tracking concentrates the work — and the payouts — on
exactly those users.
"""

import numpy as np

from repro.experiments.incentives import incentive_comparison


def test_incentive_extension():
    result = incentive_comparison(n_days=5, replications=3, seed=2017)
    print()
    print(result.render())

    flat = np.asarray(result.error_series["flat"])
    bonus = np.asarray(result.error_series["accuracy-bonus"])
    flat_effort = np.asarray(result.high_effort_series["flat"])
    bonus_effort = np.asarray(result.high_effort_series["accuracy-bonus"])
    flat_pay = float(np.sum(result.payout_series["flat"]))
    bonus_pay = float(np.sum(result.payout_series["accuracy-bonus"]))

    # Flat pay: nobody works hard, the error stays several times higher.
    assert np.all(flat_effort < 0.05)
    assert float(np.mean(bonus)) < 0.4 * float(np.mean(flat))
    # The bonus recruits high effort — overwhelmingly so once allocation
    # concentrates on users for whom the bonus is worth it.
    assert bonus_effort[-1] > 0.8
    # And the payout premium for that quality is modest (< 50%).
    assert bonus_pay < 1.5 * flat_pay
