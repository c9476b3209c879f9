"""Table 2: users per task vs the average expertise of those users."""

import numpy as np

from repro.experiments import table2_allocation_audit


def test_table2_allocation_audit(quick_config):
    result = table2_allocation_audit(quick_config)
    print()
    print(result.render())

    fractions = np.asarray(result.task_fractions)
    assert abs(float(np.nansum(fractions)) - 1.0) < 1e-6

    # The paper's observation: tasks served by fewer users got users with
    # higher expertise (high-expertise users suffice; tasks without an
    # identifiable expert are spread over more, weaker users).
    expertise = [e for e in result.mean_expertise if np.isfinite(e)]
    assert len(expertise) >= 2
    assert expertise[0] > expertise[-1]
