"""Table 1: chi-square normality non-rejection rates on the survey data."""

from repro.experiments import table1_normality


def test_table1_normality(quick_config):
    result = table1_normality(quick_config)
    print()
    print(result.render())

    # The paper reports ~87-90% non-rejection across alpha in {.5,...,.05};
    # our generated survey matches at the standard significance levels (the
    # alpha=0.5 "level" is a very loose criterion under which even truly
    # normal samples fail half the time — see chi_square_normality_test).
    rates = dict(zip(result.alphas, result.pass_rates))
    assert rates[0.05] >= 0.80
    assert rates[0.1] >= 0.75
    # Non-rejection can only grow as the significance level shrinks.
    ordered = [rates[a] for a in sorted(rates, reverse=True)]
    assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
