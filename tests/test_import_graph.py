"""The independent routes stay apart: who imports whom inside flatdiff.

The solver (grid hat weights, the discrete operator and time stepping) and
the two continuum routes (the barrier's residual quadrature and the
reference oracle) check each other only while they share no code. The
graph is read from the sources with ``ast``, so an import inside a function
counts as well.
"""

import ast
from pathlib import Path

import pytest

import flatdiff as fd

PACKAGE = Path(fd.__file__).parent
SOLVER = ("mesh", "operator", "evolution")
CONTINUUM = {"quadrature", "subsolution", "reference"}
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def imported_names(name: str) -> set[str]:
    """The dotted names that module ``name`` imports, relative ones resolved."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"flatdiff.{base}".rstrip(".")
            # ``from scipy import fft`` imports ``scipy.fft``, and
            # ``from .kernels import eval_kernel`` ``flatdiff.kernels.eval_kernel``
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def flatdiff_imports(name: str) -> set[str]:
    """The flatdiff modules that module ``name`` imports, by their short names."""
    dotted = imported_names(name)
    found = {d.split(".")[1] for d in dotted if d.startswith("flatdiff.")}
    return found & MODULES - {name}


def reachable(name: str) -> set[str]:
    """Every flatdiff module that ``name`` imports, directly or through others."""
    seen, todo = set(), [name]
    while todo:
        for target in flatdiff_imports(todo.pop()):
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen - {name}


@pytest.mark.parametrize("name", SOLVER)
def test_solver_reaches_no_continuum_route(name):
    assert reachable(name) & CONTINUUM == set()


def test_reference_oracle_uses_only_the_quadrature():
    assert flatdiff_imports("reference") == {"quadrature"}


def test_residual_certificate_uses_only_kernels_and_quadrature():
    assert flatdiff_imports("subsolution") == {"kernels", "quadrature"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_imports_mpmath(name):
    # the 60-digit route for D w lives in the tests; the library must not
    # lean on the arithmetic that checks it
    assert not {d for d in imported_names(name) if d.split(".")[0] == "mpmath"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_imports_scipy_fft(name):
    # every transform runs on numpy.fft, in the calling thread
    assert not {d for d in imported_names(name) if d.split(".")[:2] == ["scipy", "fft"]}
