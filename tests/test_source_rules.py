"""Rules on the package source that no behavioural test would notice being
broken."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ipfc"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no invariant may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


# numpy.fft names that are index helpers, not transforms
_FFT_HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}


def _fft_transform_lines(tree):
    """Lines that name a numpy.fft transform, as `<x>.fft.<name>` or
    imported from numpy.fft."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr not in _FFT_HELPERS:
            owner = node.value
            if isinstance(owner, ast.Attribute) and owner.attr == "fft":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            if any(alias.name not in _FFT_HELPERS for alias in node.names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_transforms_only_in_field(path):
    # transforms, and the symmetrization that ends each forward one, have
    # one home; field.py must still be found making them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _fft_transform_lines(tree)
    if path.name == "field.py":
        assert lines
    else:
        assert lines == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_full_layout_coefficient_reads(path):
    # full-layout coefficients enter the library only through
    # `field_from_coeffs`, `load_field` and `grid.unfold`; field.py defines
    # `SpectralField.coeffs` for callers outside it and must still be found
    # doing so
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "coeffs"]
    defines = any(isinstance(n, ast.FunctionDef) and n.name == "coeffs" for n in ast.walk(tree))
    assert reads == []
    assert defines == (path.name == "field.py")


_SYMMETRIZERS = {"enforce_hermitian", "_symmetrize"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_symmetrization_only_in_field(path):
    # fields are conjugate-symmetric by construction: only the folds and the
    # forward transform in field.py make symmetry, and field.py must still
    # be found making it
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _SYMMETRIZERS:
                lines.append(node.lineno)
    if path.name == "field.py":
        assert lines
    else:
        assert lines == []


def _call_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_states_built_only_in_sav_cn(path):
    # `init_state`, `restart_state` and `_advance` alone establish that a
    # state's samples and previous samples are the transforms of phi^n and
    # phi^{n-1}; elsewhere a state is only re-timed with
    # dataclasses.replace, and sav_cn.py must still be found building states
    from dataclasses import fields

    from ipfc.sav_cn import StepperState

    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    built = [n.lineno for n in calls if _call_name(n) == "StepperState"]
    contents = {f.name for f in fields(StepperState)} - {"t"}
    rebuilt = [
        n.lineno for n in calls
        if _call_name(n) == "replace" and any(k.arg in contents for k in n.keywords)
    ]
    assert rebuilt == []
    if path.name == "sav_cn.py":
        assert built
    else:
        assert built == []


_HOT_PATHS = ("field.py", "model.py", "sav_cn.py", "sdc.py")


@pytest.mark.parametrize("name", _HOT_PATHS)
def test_no_in_place_division_in_hot_paths(name):
    # a complex array divided in place by a positive real runs numpy's complex
    # division loop; these modules multiply by the real reciprocal, which
    # gives the same values (tests/test_kernels.py) at about half the cost
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    lines = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Div)
        or isinstance(n, ast.Call) and _call_name(n) in ("divide", "true_divide")
        and any(k.arg == "out" for k in n.keywords)
    ]
    assert lines == []


def test_cli_import_leaves_out_lazy_and_heavy_modules():
    # `import ipfc.cli` is every run's start-up: `fractions` pulls in
    # `decimal` (2.4 ms), and the dump formatter is imported by the first
    # dump_field call, so a run that writes no dump never compiles it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import sys, ipfc.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "ipfc.cli" in loaded
    assert loaded.isdisjoint({"fractions", "decimal", "ipfc._dumptext"})
