"""Fig. 12: CDF of MLE iterations to convergence."""

from repro.experiments import fig12_convergence_cdf


def test_fig12_convergence_cdf(quick_config):
    result = fig12_convergence_cdf(quick_config)
    print()
    print(result.render())

    # The paper: the majority of processes converge within ~10 iterations;
    # nearly all within a few tens (synthetic's tail reaches ~60).  Our
    # SFV runs sit a hair above the paper's medians (sparser observations
    # per task), so the caps carry a small margin.
    for name in ("survey", "sfv", "synthetic"):
        assert result.quantile(name, 0.5) <= 12.0, name
        cap = 60.0 if name == "synthetic" else 30.0
        assert result.quantile(name, 0.95) <= cap, name
