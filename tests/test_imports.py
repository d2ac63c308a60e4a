"""Every module under src/vroverlay uses each name it imports."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vroverlay"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":  # re-export files
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append("%s:%d %s" % (path.relative_to(SRC), node.lineno, name))
    assert not unused
