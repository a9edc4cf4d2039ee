"""The benchmark tracer's wrap targets resolve in the package.

`perfbench/tracer.py` wraps package functions by ``module.name``, and lists
a target that no longer resolves as absent instead of failing.  These
tests read its target lists from the source text, without importing or
running it, and resolve each one here, so a rename shows up in the suite.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LISTS = ("TRANSFORMS", "PLAIN_TARGETS", "STEPPER", "STEPPER_BINDINGS", "STEPPER_CALLABLES")


def tracer_names() -> dict[str, object]:
    """The module-level constants named in `LISTS`, and the targets of its
    ``_install("module.name", ...)`` calls under the key ``"installed"``."""
    tree = ast.parse(TRACER.read_text())
    names: dict[str, object] = {}
    for node in tree.body:
        name = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        if name in LISTS:  # literals, or tuples that name an earlier constant
            names[name] = eval(compile(ast.Expression(node.value), str(TRACER), "eval"), {}, dict(names))
    names["installed"] = tuple(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "_install"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    )
    return names


NAMES = tracer_names()
TARGETS = sorted(set(NAMES["TRANSFORMS"] + NAMES["PLAIN_TARGETS"] + NAMES["STEPPER_BINDINGS"] + NAMES["installed"]))


def resolve(target: str):
    module, _, name = target.partition(".")
    return getattr(importlib.import_module(f"dispersmooth.{module}"), name, None)


def test_lists_were_read():
    assert set(LISTS) <= set(NAMES)
    assert {"evolution.integrate", "dissipative.integrate_damped"} <= set(NAMES["installed"])


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_a_function(target):
    assert callable(resolve(target)), f"{target} is absent from the package"


def test_stepper_bindings_are_one_function_with_the_wrapped_arguments():
    steppers = {resolve(target) for target in NAMES["STEPPER_BINDINGS"]}
    assert len(steppers) == 1
    parameters = inspect.signature(steppers.pop()).parameters
    assert {*NAMES["STEPPER_CALLABLES"], "n_steps"} <= set(parameters)


def test_integrate_takes_a_state_that_names_its_system():
    # The tracer reads ``.system.value`` of `evolution.integrate`'s first
    # argument, ``state``, to give every stepper call under it a kind.
    from dispersmooth.evolution import System, integrate, random_system_state
    from dispersmooth.spectral import Grid

    assert next(iter(inspect.signature(integrate).parameters)) == "state"
    for system in System:
        state = random_system_state(system, Grid(2, 16), 1.0, 1.0, seed=0)
        assert state.system.value in {"kgs", "zakharov"}
