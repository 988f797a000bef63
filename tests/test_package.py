"""Tests for the package's public surface."""

import probdense
from probdense import denseness, erm, kernels, metrics, rkhs


def test_package_exports_each_module_all_once():
    modules = (kernels, metrics, rkhs, erm, denseness)
    expected = ["__version__", "ConfigError", "NumericalError", "derive_rng"]
    for module in modules:
        expected += module.__all__
    assert probdense.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(probdense, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(probdense, name) is getattr(module, name)
