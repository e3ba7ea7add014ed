"""Frozen report shapes of the four sampled hypothesis checks.

For seeded good and broken candidates of check_metric_axioms,
verify_matrix_lipschitz, verify_condition_c and check_comparison_axioms this
pins the length of every violation list, the branch tallies, tail_checked and
the first witness of every non-empty list. A change to how the checks sample
or evaluate must leave all of these as they are. Counts and tallies must match
exactly; witness vectors are compared to 1e-12, since evaluating a stack of
samples may round differently in the last place than evaluating one sample.
"""

import numpy as np
import pytest

from perov import (
    MapSpec,
    SquareMatrix,
    Vector,
    WeightedMatrixMetric,
    check_comparison_axioms,
    check_metric_axioms,
    cone_sampler,
    identity_map,
    linear_comparison,
    uniform_sampler,
    verify_condition_c,
    verify_matrix_lipschitz,
)


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def vec(*comps):
    return Vector(np.array(comps, dtype=float))


PLANAR_METRIC = WeightedMatrixMetric(mat([[1.0, 0.2], [0.2, 1.0]]))
SCALAR_METRIC = WeightedMatrixMetric(mat([[1.0]]))


# -- candidates --------------------------------------------------------------


def collapse(x, y):
    # distinct points within distance 5 get distance zero
    gap = np.abs(x - y)
    return np.where(gap < 5.0, 0.0, gap)


def asymmetric(x, y):
    delta = x - y
    return np.abs(delta) + 0.001 * delta


def signed(x, y):
    return x - y


def squared(x, y):
    return (x - y) ** 2


def non_monotone(t):
    # order-reversing on the first component
    return np.column_stack([0.5 / (1.0 + t[:, 0]), 0.5 * t[:, 1]])


def identity_phi(t):
    return t


TANH_MAP = MapSpec.componentwise(
    mat([[0.05, 0.02], [0.01, 0.04]]), vec(0.5, -0.2),
    mat([[3.0, 1.0], [0.0, 2.0]]), vec(0.0, 0.0), ("tanh", "sin"),
)

CANDIDATES = {
    "metric/weighted": lambda: check_metric_axioms(
        WeightedMatrixMetric(mat([[1.0, 0.25], [0.25, 1.0]])),
        uniform_sampler(2, seed=5), 500,
    ),
    "metric/collapse": lambda: check_metric_axioms(
        collapse, uniform_sampler(2, seed=6), 200
    ),
    "metric/asymmetric": lambda: check_metric_axioms(
        asymmetric, uniform_sampler(2, seed=7), 200
    ),
    "metric/signed": lambda: check_metric_axioms(
        signed, uniform_sampler(2, seed=10), 200
    ),
    "metric/squared": lambda: check_metric_axioms(
        squared, uniform_sampler(2, seed=8), 500
    ),
    "lipschitz/half": lambda: verify_matrix_lipschitz(
        MapSpec.affine(mat([[0.5]]), vec(1.0)), identity_map(1), mat([[0.5]]),
        SCALAR_METRIC, uniform_sampler(1, seed=1), 500,
    ),
    "lipschitz/expanding": lambda: verify_matrix_lipschitz(
        MapSpec.affine(mat([[2.0]]), vec(0.0)), identity_map(1), mat([[0.5]]),
        SCALAR_METRIC, uniform_sampler(1, seed=2), 500,
    ),
    "lipschitz/planar-expanding": lambda: verify_matrix_lipschitz(
        MapSpec.affine(mat([[1.2, 0.3], [0.1, 0.9]]), vec(1.0, -1.0)),
        MapSpec.affine(mat([[2.0, 0.0], [0.5, 1.0]]), vec(0.0, 3.0)),
        mat([[0.5, 0.2], [0.1, 0.5]]), PLANAR_METRIC, uniform_sampler(2, seed=3), 500,
    ),
    "lipschitz/tanh-sin": lambda: verify_matrix_lipschitz(
        TANH_MAP, identity_map(2), mat([[0.1, 0.0], [0.0, 0.1]]),
        PLANAR_METRIC, uniform_sampler(2, seed=11), 500,
    ),
    "condition-c/half": lambda: verify_condition_c(
        MapSpec.affine(mat([[0.5]]), vec(0.0)), identity_map(1),
        linear_comparison(mat([[0.6]])), SCALAR_METRIC, uniform_sampler(1, seed=4), 300,
    ),
    "condition-c/expanding": lambda: verify_condition_c(
        MapSpec.affine(mat([[2.0]]), vec(0.0)), identity_map(1),
        linear_comparison(mat([[0.6]])), SCALAR_METRIC, uniform_sampler(1, seed=5), 300,
    ),
    "condition-c/branches": lambda: verify_condition_c(
        MapSpec.affine(mat([[0.9, 0.0], [0.0, 0.8]]), vec(1.0, -2.0)), identity_map(2),
        linear_comparison(mat([[0.5, 0.0], [0.0, 0.5]])), PLANAR_METRIC,
        uniform_sampler(2, seed=12), 400,
    ),
    "comparison/half": lambda: check_comparison_axioms(
        linear_comparison(mat([[0.5, 0.0], [0.0, 0.5]])), cone_sampler(2, seed=3), 500
    ),
    "comparison/identity": lambda: check_comparison_axioms(
        identity_phi, cone_sampler(2, seed=4), 200
    ),
    "comparison/non-monotone": lambda: check_comparison_axioms(
        non_monotone, cone_sampler(2, seed=5), 300
    ),
    # hits the 10-witness cap of the tail test
    "comparison/slow-tail": lambda: check_comparison_axioms(
        linear_comparison(mat([[0.9999, 0.0], [0.0, 0.5]])),
        cone_sampler(2, seed=0), 1000,
    ),
}


def _plain(item):
    if isinstance(item, Vector):
        return [float(c) for c in item.components]
    return int(item)


def shape_of(report) -> dict:
    """Lengths, tallies and first witnesses of a report, as plain numbers."""
    shape = {}
    for name, value in sorted(vars(report).items()):
        if name.endswith("violations"):
            shape[name] = len(value)
            if value:
                shape[name + "[0]"] = [_plain(item) for item in value[0]]
        elif name in ("samples_tested", "tail_checked"):
            shape[name] = value
        elif name == "branch_counts":
            shape[name] = list(value)
    return shape


FROZEN = {
    "metric/weighted": {
        "d1_violations": 0,
        "d2_violations": 0,
        "d3_violations": 0,
        "samples_tested": 500,
    },
    "metric/collapse": {
        "d1_violations": 36,
        "d1_violations[0]": [
            [0.7632870294388638, -3.1345826037332314],
            [-2.618655204092435, -2.5100646882423527],
            [0.0, 0.0],
        ],
        "d2_violations": 0,
        "d3_violations": 91,
        "d3_violations[0]": [
            [-9.822083889291306, 9.575351243705935],
            [6.540060516381072, 5.704219186527428],
            [-9.03833025994907, -5.851214675860506],
            [16.362144405672378, 0.0],
            [0.0, 15.42656591956644],
            [15.578390776330142, 11.555433862387934],
        ],
        "samples_tested": 200,
    },
    "metric/asymmetric": {
        "d1_violations": 0,
        "d2_violations": 200,
        "d2_violations[0]": [
            [2.501909332093339, 7.944276019391509],
            [5.513713804903871, -5.495856200188163],
            [3.0087926683377213, 13.453572351799252],
            [3.0148162772833422, 13.426692087360092],
        ],
        "d3_violations": 0,
        "samples_tested": 200,
    },
    "metric/signed": {
        "d1_violations": 144,
        "d1_violations[0]": [
            [3.7807295956226223, 6.834954486245579],
            [-1.4898200519004678, 9.138520069067326],
            [5.27054964752309, -2.303565582821747],
        ],
        "d2_violations": 200,
        "d2_violations[0]": [
            [9.120034192579507, -5.846363798417062],
            [6.568897705490613, -7.014357538359595],
            [2.5511364870888933, 1.1679937399425322],
            [-2.5511364870888933, -1.1679937399425322],
        ],
        "d3_violations": 0,
        "samples_tested": 200,
    },
    "metric/squared": {
        "d1_violations": 0,
        "d2_violations": 0,
        "d3_violations": 274,
        "d3_violations[0]": [
            [-1.2423625375440235, -2.5450219382129387],
            [-7.860928070544513, -0.42069091674566117],
            [-5.172957098306354, -4.857095028977405],
            [43.80540971462205, 4.512782288768206],
            [15.449573601094421, 5.345681977037151],
            [7.22518794759495, 19.681681447026723],
        ],
        "samples_tested": 500,
    },
    "lipschitz/half": {
        "samples_tested": 500,
        "violations": 0,
    },
    "lipschitz/expanding": {
        "samples_tested": 500,
        "violations": 500,
        "violations[0]": [
            [-4.767757315013672],
            [-4.030177131717534],
            [1.4751603665922755],
            [0.36879009164806886],
        ],
    },
    "lipschitz/planar-expanding": {
        "samples_tested": 500,
        "violations": 451,
        "violations[0]": [
            [-8.287016657127513, -5.263789868078006],
            [6.025489304127937, 1.6432407212873557],
            [20.77663195562702, 11.4970013926176],
            [19.676491509153813, 13.037909840898584],
        ],
    },
    "lipschitz/tanh-sin": {
        "samples_tested": 500,
        "violations": 0,
    },
    "condition-c/half": {
        "branch_counts": [300, 0, 0],
        "samples_tested": 300,
        "violations": 0,
    },
    "condition-c/expanding": {
        "branch_counts": [0, 34, 2],
        "samples_tested": 300,
        "violations": 264,
        "violations[0]": [
            [0.30651122084283955],
            [-4.283972398237168],
            [9.180967238160015],
            [4.590483619080008],
            [0.30651122084283955],
            [4.283972398237168],
        ],
    },
    "condition-c/branches": {
        "branch_counts": [0, 5, 1],
        "samples_tested": 400,
        "violations": 394,
        "violations[0]": [
            [-4.983510837831078, 8.93505885718849],
            [-6.213592309204774, -6.414171791637848],
            [3.562950228048541, 12.500799183908336],
            [4.299927601138964, 15.595246943101078],
            [2.2557534380706477, 4.086681988194319],
            [1.7647923592549635, 1.0414374878565258],
        ],
    },
    "comparison/half": {
        "interior_violations": 0,
        "monotone_violations": 0,
        "samples_tested": 500,
        "shrink_violations": 0,
        "tail_checked": 500,
        "tail_violations": 0,
    },
    "comparison/identity": {
        "interior_violations": 200,
        "interior_violations[0]": [
            [9.430561055723675, 5.113275528143616],
            [9.430561055723675, 5.113275528143616],
        ],
        "monotone_violations": 0,
        "samples_tested": 200,
        "shrink_violations": 200,
        "shrink_violations[0]": [
            [9.430561055723675, 5.113275528143616],
            [9.430561055723675, 5.113275528143616],
        ],
        "tail_checked": 12,
        "tail_violations": 10,
        "tail_violations[0]": [
            [9.430561055723675, 5.113275528143616],
            [9.762437057077042, 0.8083602389560218],
            1,
        ],
    },
    "comparison/non-monotone": {
        "interior_violations": 21,
        "interior_violations[0]": [
            [0.1453628036381327, 9.332239002254337],
            [0.43654290012893643, 4.666119501127168],
        ],
        "monotone_violations": 300,
        "monotone_violations[0]": [
            [8.050029237453803, 8.079407897364938],
            [13.203284847875222, 10.937421698246354],
            [0.05524844029572146, 4.039703948682469],
            [0.035203124161436415, 5.468710849123177],
        ],
        "samples_tested": 300,
        "shrink_violations": 22,
        "shrink_violations[0]": [
            [0.0, 0.0],
            [0.5, 0.0],
        ],
        "tail_checked": 300,
        "tail_violations": 6,
        "tail_violations[0]": [
            [5.415686409685118, 4.422011158319407],
            [0.25108339322997386, 1.5591910712277546],
            1078,
        ],
    },
    "comparison/slow-tail": {
        "interior_violations": 0,
        "monotone_violations": 0,
        "samples_tested": 1000,
        "shrink_violations": 0,
        "tail_checked": 53,
        "tail_violations": 10,
        "tail_violations[0]": [
            [6.369616873214543, 2.697867137638703],
            [0.4097352393619469, 0.16527635528529094],
            10000,
        ],
    },
}


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_report_shape_is_frozen(name):
    actual = shape_of(CANDIDATES[name]())
    expected = FROZEN[name]
    assert sorted(actual) == sorted(expected)
    for key, want in expected.items():
        got = actual[key]
        if key.endswith("[0]"):
            assert len(got) == len(want), key
            for g, w in zip(got, want):
                if isinstance(w, int):
                    assert g == w, key
                else:
                    np.testing.assert_allclose(
                        g, w, rtol=1e-12, atol=1e-12, err_msg=key
                    )
        else:
            assert got == want, key
