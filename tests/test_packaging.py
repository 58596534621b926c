"""Packaging metadata: every declared console script and every exported
name resolves."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


def test_all_exports_resolve():
    pkg = importlib.import_module("hdwear")
    missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
    assert not missing, f"hdwear.__all__ names missing attributes: {missing}"
