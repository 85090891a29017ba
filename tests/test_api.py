"""The public API is what the CLI runs, and the test oracles run none of it."""

import ast
import fnmatch
from pathlib import Path

import nonlocal_logistic

PACKAGE = Path(nonlocal_logistic.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"

# Public names that no subcommand reaches yet, each with its pending ROADMAP fate.
# A name used only by one of these shares its fate and needs no entry.
PENDING = {
    "newton_multistart": "item 11: replaced by the deflated-Newton root count",
    "newton_polish": "item 12: reported with the certified error radius",
    "harvest_subsolution": "item 12: c_threshold reported in bifurcation.json",
    "HarvestSubsolution": "item 12: c_threshold reported in bifurcation.json",
    "check_harvest_dominance": "item 12: uniqueness certificate in bifurcation.json",
    "antimaximum_*": "item 13: the anti-maximum window in eigen.json",
    "ResolventProfile": "item 13: the anti-maximum window in eigen.json",
    "mc_green": "item 5: wrapped by name in perfbench/tracing.py",
    "survival_lambda1": "item 5: wrapped by name in perfbench/tracing.py",
    "simulate_killed_path": "items 5 and 13: deleted after the in-package recorder",
    "KilledPath": "items 5 and 13: deleted after the in-package recorder",
    "feynman_kac": "item 9: the stochastic oracle for the nonlinear branches",
}

# the package's solvers, which an independent oracle must not call
PACKAGE_SOLVERS = {"_descend", "diag_solver", "solver", "matvec", "green_solve",
                   "principal_eigenpair", "_killed_steps"}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _top_level(tree) -> dict[str, ast.AST]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update({t.id: node for t in node.targets if isinstance(t, ast.Name)})
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = node
    return out


def _uses(package: Path) -> dict[str, set[str]]:
    """The names each top-level definition of the package's modules uses."""
    uses: dict[str, set[str]] = {}
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for name, node in _top_level(ast.parse(path.read_text())).items():
                uses.setdefault(name, set()).update(_names(node))
    return uses


def _public(package: Path) -> set[str]:
    return {name for name in _uses(package) if not name.startswith("_")}


def _methods(package: Path) -> dict[str, str]:
    """``Class.method`` of every public method of a public class, to the method's name."""
    out = {}
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.update({f"{node.name}.{f.name}": f.name for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")})
    return out


def unreached_public_names(package: Path, roots: set[str]) -> set[str]:
    """Public top-level names of the package's modules, and public methods of
    its public classes, that no chain of names from ``cli.py`` or from
    ``roots`` reaches; a method is reached when its name is."""
    uses = _uses(package)
    seen: set[str] = set()
    todo = list(_names(ast.parse((package / "cli.py").read_text())) | roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(uses.get(name, ()))
    methods = {m for m, name in _methods(package).items() if name not in seen}
    return _public(package) - seen | methods


def _pending(public: set[str]) -> set[str]:
    return {name for pattern in PENDING for name in fnmatch.filter(public, pattern)}


def test_every_public_name_is_run_by_the_cli_or_pending():
    assert unreached_public_names(PACKAGE, _pending(_public(PACKAGE))) == set()


def test_every_pending_name_still_exists():
    public = _public(PACKAGE)
    assert [p for p in PENDING if not fnmatch.filter(public, p)] == []


def test_reachability_catches_an_unreached_name(tmp_path):
    (tmp_path / "cli.py").write_text("from .steady import solve\nsolve()\n")
    (tmp_path / "steady.py").write_text(
        "def solve():\n    return _loop()\n\n"
        "def _loop():\n    return CAP\n\n"
        "CAP = 3\n\n"
        "def oracle():\n    return helper()\n\n"
        "def helper():\n    return 0\n"
    )
    assert unreached_public_names(tmp_path, set()) == {"oracle", "helper"}
    assert unreached_public_names(tmp_path, {"oracle"}) == set()


def test_reachability_catches_an_unreached_method(tmp_path):
    (tmp_path / "cli.py").write_text("from .steady import Spec\nSpec().solve()\n")
    (tmp_path / "steady.py").write_text(
        "class Spec:\n"
        "    def solve(self):\n        return self._loop()\n\n"
        "    def _loop(self):\n        return 0\n\n"
        "    def report(self):\n        return 1\n\n"
        "class _Hidden:\n    def unused(self):\n        return 2\n"
    )
    assert unreached_public_names(tmp_path, set()) == {"Spec.report"}
    assert unreached_public_names(tmp_path, {"report"}) == set()


def solver_calls(path: Path) -> set[str]:
    """Calls and imports of the package's solvers in ``path``, by line."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in PACKAGE_SOLVERS:
                found.add(f"{node.lineno} {name}")
        elif isinstance(node, ast.ImportFrom):
            found |= {f"{node.lineno} {a.name}" for a in node.names if a.name in PACKAGE_SOLVERS}
    return found


def test_oracles_call_no_package_solver():
    assert solver_calls(ORACLES) == set()


def test_solver_call_check_catches_offenders(tmp_path):
    src = tmp_path / "oracles.py"
    src.write_text("from nonlocal_logistic import green_solve\n"
                   "u = op.matvec(v)\nf = op.diag_solver(d)(b)\nw = op.matrix @ v\n")
    assert solver_calls(src) == {"1 green_solve", "2 matvec", "3 diag_solver"}
