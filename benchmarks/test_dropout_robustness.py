"""Extension benchmark: robustness to response dropouts.

Mobile users accept tasks and fail to deliver; the capacity and recruiting
cost are spent anyway.  ETA2 should degrade smoothly as the dropout rate
rises — fewer observations per task, but the expertise-aware weighting of
whatever does arrive keeps the error well under the baseline's.
"""

import numpy as np

from repro.perf.sweep import ApproachSpec, replication_jobs, run_jobs


def test_dropout_robustness(quick_config):
    rates = (0.0, 0.25, 0.5)

    def run():
        series = {"ETA2": [], "baseline-mean": []}
        for rate in rates:
            for name, spec in (
                ("ETA2", ApproachSpec.eta2()),
                ("baseline-mean", ApproachSpec(kind="mean")),
            ):
                jobs = replication_jobs(
                    "synthetic", spec, quick_config, scenario={"dropout_rate": rate}
                )
                errors = [result.mean_estimation_error for result in run_jobs(jobs)]
                series[name].append(float(np.nanmean(errors)))
        return series

    series = run()
    print("\ndropout rate -> error:")
    for position, rate in enumerate(rates):
        print(
            f"  {rate:.2f}: ETA2 {series['ETA2'][position]:.3f}, "
            f"mean {series['baseline-mean'][position]:.3f}"
        )

    eta2 = np.asarray(series["ETA2"])
    mean = np.asarray(series["baseline-mean"])
    # ETA2 stays ahead at every dropout level and degrades smoothly.
    assert np.all(eta2 < mean)
    assert eta2[-1] < 3.0 * eta2[0]