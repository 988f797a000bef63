"""Tests for the package's public surface."""

import importlib
import re
import tokenize
from collections import Counter
from pathlib import Path

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


def _code_names(path):
    """Counts of the identifiers in a Python file's code, not its strings or comments."""
    with open(path, "rb") as fh:
        tokens = tokenize.tokenize(fh.readline)
        return Counter(t.string for t in tokens if t.type == tokenize.NAME)


def test_every_exported_name_has_a_caller_beyond_its_unit_tests():
    # a public name that only its own unit tests call is dead library code
    src = Path(probdense.__file__).parent
    root = src.parent.parent
    sources = {p: _code_names(p) for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    acceptance = _code_names(root / "tests" / "test_acceptance.py")
    # the demos and the benchmark name traced functions in strings, which count
    scripts = "\n".join(
        p.read_text() for d in ("demos", "perfbench") for p in sorted((root / d).glob("*.py"))
    )
    unused = []
    for path, names in sources.items():
        module = importlib.import_module(f"probdense.{path.stem}")
        for name in getattr(module, "__all__", ()):
            used = (
                names[name] > 1  # beyond its definition; the __all__ entry is a string
                or acceptance[name] > 0
                or any(other[name] for p, other in sources.items() if p != path)
                or re.search(rf"\b{name}\b", scripts)
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
