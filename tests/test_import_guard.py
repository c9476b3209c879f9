"""The program's entry points and its Eq. 11 paths load no scipy.

``scipy.special`` is imported only inside the two functions that need a
routine numpy lacks: ``stats.normal.standard_normal_quantile`` (Eq. 24's
``Z``, via ``erfinv``) and ``stats.chi_square.chi_square_sf`` (Table 1, via
``gammaincc``).  Each check runs in a fresh interpreter, since the test
process itself has scipy loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORTS = """
import sys
import numpy as np
import repro, repro.cli, repro.core.pipeline, repro.simulation.engine, repro.serve, repro.datasets

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
"""


def _run(body, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = textwrap.dedent(_IMPORTS) + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_imports_a_max_quality_run_and_a_served_day_load_no_scipy(tmp_path):
    out = _run(
        """
        assert scipy_modules() == [], scipy_modules()

        from repro.core.pipeline import ETA2System, IncomingTask
        from repro.datasets import synthetic_dataset
        from repro.serve import IngestionService, ReportBatch
        from repro.simulation import SimulationConfig, run_simulation
        from repro.simulation.approaches import ETA2Approach

        dataset = synthetic_dataset(n_users=24, n_tasks=90, n_domains=6, seed=2017)
        result = run_simulation(dataset, ETA2Approach(), SimulationConfig(n_days=2, seed=2017))
        assert len(result.days) == 2
        assert scipy_modules() == [], scipy_modules()

        system = ETA2System(n_users=8, capacities=np.full(8, 10.0), seed=3)
        service = IngestionService(system, "wal", sync="none")
        tasks = [IncomingTask(processing_time=1.0, cost=1.0, domain=j % 3) for j in range(6)]
        rng = np.random.default_rng(17)
        service.open_day(0, tasks)
        for user in range(8):
            reports = [(user, task, float(10.0 + rng.normal())) for task in range(6)]
            batch = ReportBatch(submitter=user, day=0, reports=reports, batch_id=f"u{user}")
            assert service.submit(batch).accepted
        assert service.seal_day() is not None
        service.close()
        assert scipy_modules() == [], scipy_modules()
        print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"


def test_a_min_cost_run_loads_scipy_for_the_eq24_quantile(tmp_path):
    out = _run(
        """
        from repro.datasets import synthetic_dataset
        from repro.simulation import SimulationConfig, run_simulation
        from repro.simulation.approaches import ETA2Approach

        dataset = synthetic_dataset(n_users=24, n_tasks=90, n_domains=6, seed=2017)
        approach = ETA2Approach(allocator="min-cost", min_cost_round_budget=60.0)
        assert scipy_modules() == [], scipy_modules()
        # Day 0 is the random warm-up; day 1 is the one min-cost day.
        run_simulation(dataset, approach, SimulationConfig(n_days=2, seed=2017))
        print("scipy.special" in scipy_modules())
        """,
        tmp_path,
    )
    assert out.strip() == "True"
