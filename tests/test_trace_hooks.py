"""The functions ``perfbench/traced.py`` wraps still exist where it looks.

The tracer replaces ctrend functions by module and attribute name and
stops a traced benchmark pass when one has moved. These checks read its
``HOOKS`` list from the source, without importing or changing the file.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _hooks() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no HOOKS list in {TRACED}")


def test_every_hook_target_is_callable():
    missing = []
    for module, attr, _ in _hooks():
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced.py hooks no longer resolve: {missing}"


def test_canonical_pairs_keeps_the_arguments_the_tracer_reads():
    # the tracer's svd counts index these positional arguments
    from ctrend import kcca
    params = list(inspect.signature(kcca._canonical_pairs).parameters)
    assert params[:4] == ["theta_x", "theta_y", "cross", "kappas"]
