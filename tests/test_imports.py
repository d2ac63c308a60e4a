"""Imports under src/vroverlay: each name used; the daemons' and the registry's boundaries."""
import ast
import os
import pathlib
import subprocess
import sys

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


def test_daemon_processes_never_load_the_simulator():
    # Nor OpenSSL's hashlib, which the simulator's trace digest needs: it adds
    # about 3.6 MiB to every daemon process that loads it.
    code = ("import sys, vroverlay.cli, vroverlay.daemon; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('vroverlay') or m in ('hashlib', '_hashlib'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "vroverlay.daemon" in out
    assert [m for m in out if m.startswith(("vroverlay.sim", "vroverlay.control"))] == []
    assert "hashlib" not in out and "_hashlib" not in out


def test_registry_decisions_stay_free_of_sockets_threads_and_drivers():
    # Registration, uplinked links and the control loop run without I/O, so
    # tests and either driver reach them with no socket.
    modules = set()  # absolute names; registry.py's relative imports are in vroverlay
    for node in ast.walk(ast.parse((SRC / "registry.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules.update("vroverlay.%s" % name for name in names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    top = {m.split(".")[0] for m in modules}
    assert not top & {"socket", "selectors", "threading", "time"}
    inner = {m.split(".")[1] for m in modules if m.startswith("vroverlay.")}
    assert "optimizer" in inner  # the walk saw the package imports
    assert not inner & {"daemon", "protocol", "cli", "sim"}
