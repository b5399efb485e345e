"""No code without a caller: every module-level function and public method
in `src/polsim` is named somewhere in `src/polsim` outside its own body.

The check is by name, not by type: `x.record_rssi(...)` counts as a call of
every method called `record_rssi`. A method counts as named only where its
name is an attribute, `x.name`: a local variable of the same name calls
nothing. A function counts as a variable or an attribute. A definition with
no caller in the package either goes or is listed in ALLOWED with the
file that reads it and why; that file must still name it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polsim"

# qualified name -> (the file outside src/polsim that reads it, why it stays)
ALLOWED = {
    "harness.write_traces": ("perfbench/tracer.py", "wraps it by name, ROADMAP item 1"),
    "topology.TopologyStore.update_smoothed": ("perfbench/tracer.py", "wraps it by name, ROADMAP item 1"),
    "messages.encode_message": ("tests/test_messages.py", "public API with test-only callers, ROADMAP item 6"),
    "protocol.NodeState.receive_wire": ("tests/test_protocol.py", "public API with test-only callers, ROADMAP item 6"),
    "harness.RunResult.events": ("perfbench/workloads.py", "hashes a held run's events"),
}


def _names(node: ast.AST, attributes_only: bool) -> Counter:
    """How often each name occurs in `node` as an attribute and, unless
    `attributes_only`, as a variable."""
    names: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.Name) and not attributes_only:
            names[n.id] += 1
    return names


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node, is a method) of each module-level function and
    each public method of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, True


def uncalled(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in `sources` (module name -> code)
    whose name occurs nowhere outside their own body."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    everywhere = {
        kind: sum((_names(tree, kind) for tree in trees.values()), Counter()) for kind in (False, True)
    }
    return [
        qualname
        for module, tree in trees.items()
        for qualname, node, is_method in _definitions(module, tree)
        if everywhere[is_method][node.name] == _names(node, is_method)[node.name]
    ]


@pytest.fixture(scope="module")
def package_uncalled() -> list[str]:
    return uncalled({path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))})


def test_every_definition_has_a_caller(package_uncalled):
    assert sorted(set(package_uncalled) - ALLOWED.keys()) == []


def test_allowed_definitions_are_still_uncalled(package_uncalled):
    """An allowed name that gained a caller in the package leaves the list."""
    assert sorted(ALLOWED.keys() - set(package_uncalled)) == []


def test_allowed_definitions_are_still_read_by_their_file():
    """An allowed name whose reader stopped naming it leaves the list. The
    reader names it as the package does, or as a whole string (a name the
    tracer wraps)."""
    unread = []
    for qualname, (reader, _why) in ALLOWED.items():
        tree = ast.parse((ROOT / reader).read_text(encoding="utf-8"))
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        name = qualname.rsplit(".", 1)[1]
        is_method = qualname.count(".") == 2
        if name not in _names(tree, attributes_only=is_method) and name not in strings:
            unread.append(qualname)
    assert unread == []


def test_check_flags_an_uncalled_definition():
    code = '''
def used(n):
    return used(n - 1) if n else helper()

def helper():
    return 0

def recursive_only(n):
    return recursive_only(n - 1)

class Box:
    def read(self):
        return self._peek()

    def write(self):
        return Box().read()

    def size(self):
        return 0

    def _peek(self):
        return 1
'''
    # a variable named like a method calls nothing
    other = "mod.used(3)\nsize = 3"
    assert uncalled({"mod": code, "other": other}) == ["mod.recursive_only", "mod.Box.write", "mod.Box.size"]
