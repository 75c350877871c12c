"""Source hygiene: no package module imports another module's private
names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raysched"


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "raysched":
                continue
            offenders.extend(
                f"{path.name}:{node.lineno} imports {alias.name} "
                f"from {'.' * node.level}{module}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    assert offenders == []
