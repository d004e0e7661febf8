"""perfbench's tracer (perfbench/child.py) patches program functions by
name, skips a name it cannot find, so that its metrics read 0, and its hooks
read call arguments by name.  These tests read its tables with ast, without
importing it, and resolve each target against the program as the tracer
does."""

import ast
import importlib
import inspect
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
# targets that the program no longer has; their metrics read 0
KNOWN_MISSING = {("chasflow.boundary_layers", "Cascade.remainder"),
                 ("chasflow.linearized", "factorize_linearized"),
                 ("chasflow.cli", "_write_json")}


def _child():
    """child.py's SPANS and HOOKS tables, and its functions by name."""
    tables, functions = {}, {}
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name == "SPANS":
                tables[name] = ast.literal_eval(node.value)
            elif name == "HOOKS":   # span name -> hook function name
                tables[name] = {ast.literal_eval(k): v.id for k, v in
                                zip(node.value.keys, node.value.values)}
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    return tables["SPANS"], tables["HOOKS"], functions


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_span_target_resolves_but_the_known_missing():
    spans, _, _ = _child()
    targets = {t for group in spans.values() for t in group}
    assert {t for t in targets if _resolve(*t) is None} == KNOWN_MISSING


def test_the_march_hook_reads_parameters_the_layer_solvers_keep():
    # _march_steps reads bound.arguments["grid"] of each layer solve
    spans, hooks, functions = _child()
    read = {node.slice.value for node in ast.walk(functions["_march_steps"])
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "arguments"}
    assert read == {"grid"}
    hooked = [t for span, hook in hooks.items() if hook == "_march_steps"
              for t in spans[span]]
    assert sorted(path for _, path in hooked) == ["solve_layer_minus",
                                                  "solve_layer_plus"]
    for target in hooked:
        assert read <= set(inspect.signature(_resolve(*target)).parameters)
