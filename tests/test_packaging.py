"""Packaging metadata: ``pyproject.toml`` matches what the code imports."""

import ast
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def config():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] support as beta.
        warnings.simplefilter("ignore")
        return read_configuration(ROOT / "pyproject.toml")


def _third_party_imports():
    """Top-level names of every non-stdlib, non-repro import under src/."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_project_metadata(config):
    project = config["project"]
    assert project["name"] == "repro"
    assert project["requires-python"] == ">=3.10"
    assert config["tool"]["setuptools"]["package-dir"] == {"": "src"}


def test_every_package_is_discovered(config):
    packages = {
        ".".join(init.parent.relative_to(SRC).parts)
        for init in SRC.rglob("__init__.py")
    }
    assert set(config["tool"]["setuptools"]["packages"]) == packages


def test_runtime_dependencies_cover_every_third_party_import(config):
    assert config["project"]["dependencies"] == ["numpy"]
    assert _third_party_imports() == {"numpy"}


def test_test_extra_lists_the_test_toolchain(config):
    assert config["project"]["optional-dependencies"]["test"] == [
        "pytest",
        "pytest-benchmark",
        "pytest-cov",
        "hypothesis",
    ]
