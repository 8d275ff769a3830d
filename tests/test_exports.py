import ast
import importlib
import pathlib
import pkgutil

import pytest

import ipme

MODULES = ["ipme"] + sorted(f"ipme.{m.name}"
                            for m in pkgutil.iter_modules(ipme.__path__))

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the product: the package and the benchmark that drives it
SOURCES = (sorted(ROOT.glob("src/ipme/*.py"))
           + sorted(ROOT.glob("perfbench/*.py")))

# exports only tests call, each the reference a test checks the product
# against; everything else in an __all__ needs a caller in SOURCES
ORACLES = {
    "barrier_check": "the paper's time-Lipschitz, boundary-Hoelder and "
                     "Cauchy-V barriers, checked on the solver's output",
    "cfl_dt": "the 2-d stability bound the step tests size dt with",
    "step_explicit": "one forward-Euler step, pinned bit for bit against "
                     "the stage loop",
    "cfl_dt_1d": "the 1-d stability bound the pme1d step tests size dt with",
    "ode_residual": "C08: the profile tables satisfy their ODE",
    "read_manifest": "reads back write_manifest's bytes for C11 and the "
                     "manifest round trips",
    "pressure_from_density": "the inverse that the conversion round trip "
                             "checks density_from_pressure against",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # a deletion must take its name out of __all__ too
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _references(tree: ast.Module):
    """(name, owner) for every name, attribute and string constant in a
    module (strings count because perfbench wraps functions by name);
    owner is the enclosing top-level def or class, None at module level.
    The __all__ list itself is no reference."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            continue
        owner = stmt.name if isinstance(stmt, _DEFS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                yield node.value, owner


def _unused_exports(kept: set) -> set:
    """Exported names not in `kept` with no reference in SOURCES outside
    their own definition and outside the definitions of other unused
    exports (so a helper only dead code calls is dead too)."""
    refs = [r for path in SOURCES
            for r in _references(ast.parse(path.read_text(encoding="utf-8")))]
    exported = {name for module in MODULES
                for name in importlib.import_module(module).__all__}
    dead: set = set()
    while True:
        live = {name for name, owner in refs
                if owner != name and owner not in dead}
        grown = exported - live - kept
        if grown == dead:
            return dead
        dead = grown


def test_every_export_has_a_caller_or_is_an_oracle():
    # what neither a command, the benchmark nor a test oracle needs goes
    assert sorted(_unused_exports(set(ORACLES))) == []


def test_oracles_are_exported_and_have_no_product_caller():
    # an oracle that gains a product caller, or is deleted, leaves the list
    assert sorted(set(ORACLES) - _unused_exports(set())) == []
