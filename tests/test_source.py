import ast
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
