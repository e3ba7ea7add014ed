"""Tests of the benchmark's own arithmetic, oracle and generators.

They run no workload and take a few seconds:

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import aggregate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def _shipped(name: str) -> str:
    return (workloads.SHIPPED_DIR / f"{name}.prob").read_text(encoding="utf-8")


def test_self_time_subtracts_nested_children():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["gate", 1.0, 4.0, 0],
        ["cli.emit", 2.0, 3.0, 1],
        ["iterate", 5.0, 9.0, 0],
        ["gate", 6.0, 7.5, 3],  # a precheck nested in the iteration
    ]
    assert aggregate.self_times(spans) == pytest.approx(
        {"cli": 3.0, "gate": 2.0 + 1.5, "cli.emit": 1.0, "iterate": 2.5}
    )


def test_self_time_counts_overlapping_children_once():
    spans = [["cli", 0.0, 10.0, -1], ["gate", 1.0, 4.0, 0], ["certify", 3.0, 6.0, 0]]
    assert aggregate.self_times(spans)["cli"] == pytest.approx(5.0)


def test_cases_reduce_to_medians_then_combine_by_geometric_mean():
    samples = {"a": [1.0, 9.0, 2.0], "b": [8.0, 8.0, 100.0]}
    medians = [aggregate.median(v) for v in samples.values()]
    assert medians == [2.0, 8.0]
    assert aggregate.geomean(medians) == pytest.approx(4.0)


def test_interquartile_mean_averages_the_middle_half():
    # Eight samples in two clusters: a quarter (two) is cut from each end.
    assert aggregate.interquartile_mean([0.6, 0.9, 0.65, 0.95, 0.7, 0.9, 0.62, 5.0]) == pytest.approx(
        (0.65 + 0.7 + 0.9 + 0.9) / 4
    )
    assert aggregate.interquartile_mean([3.0, 1.0, 2.0]) == pytest.approx(2.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert aggregate.tail_percentile(list(range(50))) is None
    q, _ = aggregate.tail_percentile(list(range(200)))
    assert q == 90
    q, _ = aggregate.tail_percentile(list(range(2000)))
    assert q == 99


def test_spectral_radius_takes_irreducible_blocks():
    nilpotent = np.triu(np.full((5, 5), 0.7), 1)
    assert oracle.spectral_radius(nilpotent) == 0.0
    block = np.array([[0.5, 0.9, 0.0], [0.0, 0.3, 0.0], [0.0, 0.4, 0.6]])
    assert oracle.spectral_radius(block) == pytest.approx(0.6)
    periodic = np.array([[0.0, 0.8], [0.5, 0.0]])
    assert oracle.spectral_radius(periodic) == pytest.approx(np.sqrt(0.4))


def test_oracle_linear44_converges_to_4_4():
    exp = oracle.expect(_shipped("linear44"), "solve-perov")
    assert exp.exit_code == 0
    assert exp.point == pytest.approx([4.0, 4.0])
    assert 0 < exp.tol_point < 1e-8


def test_oracle_refuses_identity():
    assert oracle.expect(_shipped("identity"), "certify").exit_code == 2


def test_oracle_certify_bounds_rho_from_below():
    exp = oracle.expect(_shipped("linear44"), "certify")
    assert (exp.exit_code, exp.rho) == (0, pytest.approx(0.75))
    ok = ["#REC kind=certificate label=k status=certified rho=0.75", "#REC kind=exit code=0"]
    low = ["#REC kind=certificate label=k status=certified rho=0.7", "#REC kind=exit code=0"]
    assert oracle.judge(exp, 0, ok) is None
    assert "below the spectral radius" in oracle.judge(exp, 0, low)


def test_oracle_expects_budget_exhaustion():
    assert oracle.expect(_shipped("budget-exhaust"), "solve-perov").exit_code == 3


def test_oracle_decides_sampled_hypotheses():
    assert oracle.expect(_shipped("broken-lipschitz"), "verify-lipschitz").exit_code == 2
    assert oracle.expect(_shipped("jungck-thirds"), "verify-lipschitz").exit_code == 0
    shifted = _shipped("jungck-thirds").replace("g.b = 0", "g.b = 1000000.3")
    assert oracle.expect(shifted, "verify-lipschitz").exit_code == 0


def test_judge_checks_exit_code_point_and_exit_record():
    exp = oracle.expect(_shipped("linear44"), "solve-perov")
    point = "3.9999999998720015,3.9999999998720015"
    good = [f"#REC kind=result status=converged point={point} value={point}", "#REC kind=exit code=0"]
    far = [r.replace("3.9999999998720015", "3.9999") for r in good]
    assert oracle.judge(exp, 0, good) is None
    assert oracle.judge(exp, 2, good).startswith("exit 2")
    assert oracle.judge(exp, 0, far).startswith("point off")
    assert oracle.judge(exp, 0, good[:1]) is not None


def test_same_seed_gives_byte_identical_files_and_seeds_differ():
    for workload in workloads.WORKLOADS:
        first = [c.text for c in workloads.generate(workload, 7)]
        assert first == [c.text for c in workloads.generate(workload, 7)]
        if workload != "shipped":
            assert first != [c.text for c in workloads.generate(workload, 8)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_files_parse_and_are_decided(workload, tmp_path):
    import perov.cli

    for seed in (0, 1):
        for case in workloads.generate(workload, seed):
            path = tmp_path / f"{case.id}.prob"
            path.write_text(case.text, encoding="utf-8")
            perov.cli.parse_problem(str(path))
            oracle.expect(case.text, case.command, case.flags)


def test_known_defects_name_existing_cases():
    ids = {f"{w}/{c.id}" for w in workloads.WORKLOADS for c in workloads.generate(w, 0)}
    assert set(workloads.KNOWN_DEFECTS) <= ids
