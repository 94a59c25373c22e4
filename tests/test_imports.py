"""Every import in the package, the tests and the demos is used, and every
parameter of a package function is read, save the listed exceptions: scans
of each module's syntax tree for names that nothing reads."""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for d in ("src/ecocorridor", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in string annotations and in
    ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                read.add(base.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= _read(ast.parse(ann.value, mode="eval"))
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return read


def test_no_unused_import():
    unused = []
    for path in SCANNED:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in read]
    assert unused == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import math\nfrom os import path as p, sep\n"
                     "def f(x: 'sep') -> None:\n    return p\n")
    assert set(_imported(tree)) - _read(tree) == {"math"}


# parameters that a function does not read, each with the reason it stays;
# the three that perfbench/ passes go with a change to the benchmark
UNREAD_PARAMETERS = {
    "baseline.simulate_regular.policy: t": "the `_drive` callback signature",
    "baseline.simulate_regular.policy: x": "the `_drive` callback signature",
    "baseline.simulate_regular: v": "perfbench/ passes it positionally",
    "advisory.simulate_advised_driver: v": "perfbench/ passes it positionally",
    "dp.DpContext.pair_sources: stage": "perfbench/ passes it positionally",
}


def _unread_parameters(tree: ast.Module, module: str) -> list[str]:
    """Each parameter, other than ``self`` and ``cls``, that its function's
    body (nested functions included) never reads, as ``function: name``."""
    unread = []

    def visit(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}.{child.name}"
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                unread.extend(f"{name}: {p}" for p in params
                              if p not in read and p not in ("self", "cls"))
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.{child.name}")
            else:
                visit(child, qualname)

    visit(tree, module)
    return unread


def test_no_unread_parameter():
    unread = []
    for path in sorted((ROOT / "src/ecocorridor").glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)


def test_the_scan_finds_an_unread_parameter():
    tree = ast.parse("class C:\n    def f(self, a, b, *c, d, **e):\n"
                     "        def g(h):\n            return a + d\n        return g(e)\n")
    assert _unread_parameters(tree, "m") == ["m.C.f: b", "m.C.f: c", "m.C.f.g: h"]


# The package modules that importing `ecocorridor.report` and loading a
# config bring in: the set-up that perfbench/setup_time.py times in fresh
# interpreters. The oracle, the CLI and the sweep's process pool load later,
# in the commands and workloads that use them.
SETUP_MODULES = [
    "ecocorridor", "ecocorridor.advisory", "ecocorridor.baseline", "ecocorridor.battery",
    "ecocorridor.config", "ecocorridor.corridor", "ecocorridor.costs", "ecocorridor.dp",
    "ecocorridor.forward", "ecocorridor.powertrain", "ecocorridor.report", "ecocorridor.study",
    "ecocorridor.trajectory",
]


def test_setup_imports_only_what_it_uses():
    code = (
        "import sys\n"
        "import ecocorridor.report\n"
        "from ecocorridor.config import load_config\n"
        f"load_config({str(ROOT / 'configs' / 'paper_sweep.json')!r})\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    loaded = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True).stdout.split()
    assert [m for m in loaded if m.split(".")[0] == "ecocorridor"] == SETUP_MODULES
    assert "multiprocessing" not in loaded
