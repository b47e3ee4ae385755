"""Self-tests of the benchmark: generators, scenario domain and oracle.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from spdcpol import load_scenario
from spdcpol.measurement import MAX_SUPPORTED_ANGLE

CATALOGUE = (Path(__file__).resolve().parent.parent / "src" / "spdcpol"
             / "data" / "materials.txt")


@pytest.fixture(scope="module")
def orc():
    return oracle.Oracle(CATALOGUE)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, orc):
    first = workloads.generate(workload, 7, orc)
    again = workloads.generate(workload, 7, orc)
    other = workloads.generate(workload, 8, orc)
    assert [sc.text for sc in first] == [sc.text for sc in again]
    assert [sc.text for sc in first] != [sc.text for sc in other]
    assert len(first) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_scenario_loads_inside_the_domain(workload, orc,
                                                          tmp_path):
    pool = workloads.generate(workload, 3, orc)
    pool += workloads.accuracy_panel(workload, orc)
    for sc in pool:
        path = tmp_path / f"{sc.name}.cfg"
        path.write_text(sc.text)
        spec = load_scenario(path)
        n_o = float(orc.physics(sc.params)["n_o"])
        if spec.scan is not None:
            edge = max(abs(spec.scan.theta_ext_min),
                       abs(spec.scan.theta_ext_max))
            assert edge / n_o <= MAX_SUPPORTED_ANGLE
        if spec.visibility is not None:
            halfwidth = spec.visibility.max_halfwidth_ext
            if halfwidth is None:
                halfwidth = orc.first_singlet_ext_mrad(sc.params) * 1e-3
            reach = abs(spec.visibility.center_ext) + halfwidth
            assert reach / n_o <= MAX_SUPPORTED_ANGLE


def test_window_pool_holds_narrow_far_off_axis_windows(orc):
    pool = workloads.generate("window_sweep", 5, orc)
    narrow_far = [sc for sc in pool
                  if sc.params["visibility"]["max_halfwidth_mrad"] is not None
                  and abs(float(sc.params["visibility"]["center_mrad"])) > 8.0
                  and float(sc.params["visibility"]["max_halfwidth_mrad"])
                  < 1.0]
    assert narrow_far


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_agrees_with_itself_at_two_precisions(workload, orc):
    precise = oracle.Oracle(CATALOGUE, dps=34, gl_degree=5)
    panel = workloads.accuracy_panel(workload, orc)
    for sc in panel[:4] + panel[-1:]:
        low, high = orc.expected(sc.params), precise.expected(sc.params)
        assert low.keys() == high.keys()
        for name, (ref, scale) in high.items():
            assert np.max(oracle.rel_err(low[name][0], ref, scale),
                          initial=0.0) < 1e-13


def test_compare_flags_wrong_values(orc):
    params = workloads.generate("cli_batch", 1, orc)[0].params
    name, expected = next(iter(orc.expected(params).items()))
    ref = expected[0]
    assert oracle.compare(name, ref.copy(), expected) == (0.0, True)
    wrong = ref.copy()
    wrong[3, 4] *= 1.001
    assert not oracle.compare(name, wrong, expected)[1]


def test_tracer_counts_calls_and_restores_bindings():
    import tracing
    from spdcpol import measurement, scenario
    original = scenario.coincidence_rate
    with tracing.Tracer() as tracer:
        assert scenario.coincidence_rate is measurement.coincidence_rate
        assert scenario.coincidence_rate is not original
        scenario.run_scenario(scenario.load_scenario("fig2a"))
    assert scenario.coincidence_rate is original
    totals = tracer.totals()
    assert totals["scenario.load_scenario"][0] == 1
    assert totals["crystal.phase_matching_cut_angle"][0] == 2
    assert totals["measurement.coincidence_rate"][0] == 2 * 2 * 321
