"""pyproject.toml declares only what exists: importable dependencies, callable scripts."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
)


def test_every_dependency_imports():
    for requirement in PYPROJECT["project"]["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_every_script_resolves_to_a_callable():
    for script, target in PYPROJECT["project"].get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script} -> {target} is not callable"


def test_the_package_exports_the_tape_and_its_tensors_only():
    # the gradient check is the tests' own (tests/gradcheck.py), not the package's
    import querytrack
    import querytrack.autodiff as ad

    assert querytrack.__all__ == ["Tape", "Tensor", "__version__"]
    assert not hasattr(ad, "grad_check") and not hasattr(ad, "GradCheckReport")
