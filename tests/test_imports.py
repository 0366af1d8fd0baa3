"""Package layering: the solver loop sits on top, and nothing below imports it."""

import ast
import pathlib

import fmopt

PACKAGE = pathlib.Path(fmopt.__file__).resolve().parent


def imported_modules(path):
    """Names of the fmopt modules a source file imports, at any depth of its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("fmopt.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "fmopt":
                    continue
                module = module.removeprefix("fmopt").lstrip(".")
            if module:  # from .a import x
                names.add(module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


def test_only_the_front_ends_import_saddle():
    importers = sorted(
        path.stem for path in PACKAGE.glob("*.py") if "saddle" in imported_modules(path)
    )
    assert importers == ["__init__", "cli"]


def test_import_finder_sees_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from . import a, b\nfrom .c import x\nimport fmopt.d\n"
        "from fmopt import e\nfrom fmopt.f import y\n"
        "def g():\n    from .h import z\n"
    )
    assert imported_modules(source) == set("abcdefh")
