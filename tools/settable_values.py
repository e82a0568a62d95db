"""Count the settable values of the objreloc package.

Prints three counts, one per line:

    defaults          parameters with a default value, positional or
                      keyword-only, of every function and method in the
                      package, oracles.py left out (it holds test oracles)
    dataclass fields  fields of @dataclass classes that are __init__
                      arguments: ClassVar annotations and field(init=False)
                      are not
    config leaves     leaf keys of pipeline._default_config(), counting the
                      keys of each rs_segments entry; a list of numbers is
                      one leaf

A change that simplifies raises none of them.

    python tools/settable_values.py [package directory, default src/objreloc]
"""

import ast
import importlib
import sys
from pathlib import Path

_SKIP = {"oracles.py"}


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_init_field(stmt):
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return False
    return True


def count_source(source):
    """(parameters with a default, dataclass __init__ fields) of one module."""
    defaults = fields = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(_is_init_field(stmt) for stmt in node.body)
    return defaults, fields


def count_leaves(value):
    """Leaf keys of a nested config; a list of objects counts each object's."""
    if isinstance(value, dict):
        return sum(count_leaves(v) for v in value.values())
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return sum(count_leaves(v) for v in value)
    return 1


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/objreloc").resolve()
    defaults = fields = 0
    for path in sorted(root.rglob("*.py")):
        if path.name in _SKIP:
            continue
        d, f = count_source(path.read_text(encoding="utf-8"))
        defaults += d
        fields += f
    sys.path.insert(0, str(root.parent))
    pipeline = importlib.import_module(f"{root.name}.pipeline")
    print(f"defaults {defaults}")
    print(f"dataclass fields {fields}")
    print(f"config leaves {count_leaves(pipeline._default_config())}")


if __name__ == "__main__":
    main(sys.argv)
