"""Every module-level import of the package, the scripts and the tests is used,
every f-string in them has a placeholder, and no default in them is a mutable
value that every call or every tuple built would share.

Checked with ast, so no linter is needed. The package's __init__.py is
left out: its imports are re-exports.
"""

import ast

import pytest

from conftest import REPO

MODULES = sorted(
    path
    for path in [
        *(REPO / "src" / "mathagent").glob("*.py"),
        *(REPO / "scripts").glob("*.py"),
        *(REPO / "tests").glob("*.py"),
    ]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no ast.Name reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def placeholderless_fstrings(source: str) -> list[str]:
    """The lines of f-strings that format no value; a format spec's own f-string is not one."""
    nodes = list(ast.walk(ast.parse(source)))
    # f"{x:.2f}" holds the spec ".2f" as a nested f-string
    specs = {id(node.format_spec) for node in nodes if isinstance(node, ast.FormattedValue)}
    return [
        f"line {node.lineno}"
        for node in nodes
        if isinstance(node, ast.JoinedStr) and id(node) not in specs
        and not any(isinstance(value, ast.FormattedValue) for value in node.values)
    ]


_MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _is_mutable(node) -> bool:
    """A list, dict or set display, a comprehension of one, or a call of list, dict or set."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in {"list", "dict", "set"}
    return isinstance(node, _MUTABLE_NODES)


def mutable_defaults(source: str) -> list[str]:
    """The lines of function defaults and NamedTuple field defaults that are mutable."""
    defaults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        elif isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases
        ):
            defaults += [f.value for f in node.body if isinstance(f, ast.AnnAssign) and f.value]
    return [f"line {d.lineno}" for d in sorted(defaults, key=lambda d: (d.lineno, d.col_offset))
            if _is_mutable(d)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_f_string_has_a_placeholder(path):
    assert placeholderless_fstrings(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_default_is_mutable(path):
    assert mutable_defaults(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nsys.exit()\n"
    assert unused_imports(source) == ["line 2: os"]


def test_an_f_string_without_a_placeholder_is_found():
    source = 'a = f"{x:.2f}"\nb = f"none"\nc = f"{x:>{w}}" "tail"\nd = f"one" f"two"\n'
    assert placeholderless_fstrings(source) == ["line 2", "line 4"]


def test_a_mutable_default_is_found():
    source = (
        "def f(a=[], b=(), *, c={}, d=None, e=frozenset()):\n    pass\n"  # line 1: a and c
        "g = lambda x={1}, y=[i for i in x]: x\n"  # line 3: both
        "class T(typing.NamedTuple):\n"
        "    xs: list = list()\n"  # line 5
        "    n: int = 0\n"
        "    ys: dict = {k: 1 for k in 'ab'}\n"  # line 7
        "    zs: tuple\n"
        "class U:\n"
        "    vs: list = []\n"  # not a NamedTuple
        "async def h(w=dict(a=1)):\n    pass\n"  # line 11
    )
    assert mutable_defaults(source) == [
        "line 1", "line 1", "line 3", "line 3", "line 5", "line 7", "line 11"
    ]
