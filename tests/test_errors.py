"""The one budget type: ``Budget`` counts down and raises on an overrun, and
no other code in the package raises ResourceLimitError but the one-shot
size caps."""

import ast
from pathlib import Path

import pytest

import imtw
from imtw.errors import Budget, ResourceLimitError

# the functions that construct ResourceLimitError: the countdown every
# search, enumeration and dynamic program charges, and the caps that refuse
# an input by its size before any work starts, or a report value by its
# digits before it is written
RAISERS = {
    "cli._rational",
    "errors.Budget.spend",
    "forest.signature_family_exhaustive",
    "oracles.brute_induced_matching_touching",
    "oracles.brute_max_weight_induced_forest",
    "oracles.brute_mwis",
    "oracles.enumerate_maximal_induced_forests",
    "oracles.exact_width_parameters",
    "packing.blob_graph",
}


def _constructs(node):
    """Whether ``node`` builds a ResourceLimitError: a call of the class, or
    a raise of the bare class."""
    if isinstance(node, ast.Call):
        node = node.func
    elif isinstance(node, ast.Raise):
        node = node.exc
    else:
        return False
    return isinstance(node, ast.Name) and node.id == "ResourceLimitError"


def _raisers(path):
    """module.qualname of each function in ``path`` that builds a
    ResourceLimitError, once per construction."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if _constructs(child):
                found.append(".".join((path.stem,) + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_only_the_budget_and_the_size_caps_raise_resource_limits():
    # a hand-rolled countdown that raises ResourceLimitError itself shows up
    # here; it should charge a Budget instead
    found = []
    for path in sorted(Path(imtw.__file__).parent.glob("*.py")):
        found += _raisers(path)
    assert set(found) == RAISERS
    assert found.count("errors.Budget.spend") == 1


def test_budget_raises_past_its_limit_and_stays_overrun():
    budget = Budget(3, "three units")
    budget.spend()
    budget.spend(2)
    assert budget.left == 0
    with pytest.raises(ResourceLimitError, match="^three units$") as overrun:
        budget.spend(1, partial_count=7)
    assert overrun.value.partial_count == 7
    with pytest.raises(ResourceLimitError) as again:
        budget.spend()
    assert again.value.partial_count is None
