import perov
from perov import contraction, errors, metric, ordered_algebra, sampling, solver

MODULES = (contraction, errors, metric, ordered_algebra, sampling, solver)


def test_the_package_exports_every_public_name_of_its_modules():
    from perov import DRAW_LIMIT, linear_comparison_axioms

    assert DRAW_LIMIT is sampling.DRAW_LIMIT
    assert linear_comparison_axioms is contraction.linear_comparison_axioms
    assert sorted(errors.__all__) == ["EvaluationError", "NotCertifiedError", "PreimageError", "UsageError"]
    names = sorted({name for module in MODULES for name in module.__all__})
    assert perov.__all__ == [*names, "__version__"] and len(perov.__all__) == 49
    for module in MODULES:
        for name in module.__all__:
            assert getattr(perov, name) is getattr(module, name)
    assert not hasattr(perov, "annotations")
