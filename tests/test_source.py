import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tricode"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants of the package
    # are enforced by raising exceptions instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 10
    assert found == []


def _walk_outside(node, skip):
    """ast.walk without descending into the node ``skip``."""
    todo = [node]
    while todo:
        cur = todo.pop()
        if cur is not skip:
            yield cur
            todo.extend(ast.iter_child_nodes(cur))


def test_every_private_function_is_used_in_the_package():
    # a private module-level function or method referenced nowhere in src/
    # outside its own definition is dead code, or lives on only as a test
    # helper (test references do not count)
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defs = []
    for path, tree in trees.items():
        nodes = list(tree.body)
        nodes += [item for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
        defs += [(path, node) for node in nodes
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(defs) > 20
    dead = []
    for path, node in defs:
        used = any(
            (isinstance(tok, ast.Name) and tok.id == node.name)
            or (isinstance(tok, ast.Attribute) and tok.attr == node.name)
            for tree in trees.values() for tok in _walk_outside(tree, node))
        if not used:
            dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []


def _names(node):
    """Every name, attribute and string constant in the tree under node."""
    for tok in ast.walk(node):
        if isinstance(tok, ast.Name):
            yield tok.id
        elif isinstance(tok, ast.Attribute):
            yield tok.attr
        elif isinstance(tok, ast.Constant) and isinstance(tok.value, str):
            yield tok.value


def test_every_public_definition_is_referenced():
    # a public module-level function or class that nothing in src/, scripts/,
    # tests/ or benchmark/ names outside its own definition (as a name, an
    # attribute or a string, as the benchmark's traced layers do) is dead code
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "scripts", "tests", "benchmark")
             for path in sorted((root / folder).rglob("*.py"))}
    everywhere = collections.Counter(name for tree in trees.values() for name in _names(tree))
    defs = [(path, node) for path in sorted(SRC.glob("*.py")) for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    assert len(defs) > 100
    dead = [f"{path.name}:{node.lineno} {node.name}" for path, node in defs
            if everywhere[node.name] == collections.Counter(_names(node))[node.name]]
    assert dead == []
