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


def _references(node):
    """Every way the tree under node can name a definition: ("name", x) for a
    name or string constant x (the benchmark names its traced layers by
    string), ("attr", x) for an attribute .x and ("attr", m, x) for m.x."""
    for tok in ast.walk(node):
        if isinstance(tok, ast.Name):
            yield "name", tok.id
        elif isinstance(tok, ast.Constant) and isinstance(tok.value, str):
            yield "name", tok.value
        elif isinstance(tok, ast.Attribute):
            yield "attr", tok.attr
            if isinstance(tok.value, ast.Name):
                yield "attr", tok.value.id, tok.attr


def test_every_public_definition_is_referenced():
    # a public module-level function or class, or a public method, that
    # nothing in src/, scripts/ or benchmark/ names outside its own definition
    # is not package code: test references do not count, so a definition only
    # tests use is deleted or moved into the tests.  A module-level name counts
    # as a bare name or as module.name; a method counts as any attribute .name
    # (so a method escapes the guard when another attribute shares its name)
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "scripts", "benchmark")
             for path in sorted((root / folder).rglob("*.py"))}
    everywhere = collections.Counter(ref for tree in trees.values() for ref in _references(tree))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = [(path, node, [("name", node.name), ("attr", path.stem, node.name)])
            for path in sorted(SRC.glob("*.py")) for node in trees[path].body if isinstance(node, kinds)]
    defs += [(path, item, [("name", item.name), ("attr", item.name)]) for path, cls, _ in defs
             if isinstance(cls, ast.ClassDef) for item in cls.body if isinstance(item, kinds)]
    defs = [d for d in defs if not d[1].name.startswith("_")]
    assert len(defs) > 150
    dead = [f"{path.name}:{node.lineno} {node.name}" for path, node, refs in defs
            if all(everywhere[ref] == collections.Counter(_references(node))[ref] for ref in refs)]
    assert dead == []


def test_every_module_level_import_is_used():
    # a name that a module imports at its top level and never reads is dead
    # weight, and it hides which modules really depend on which (imports
    # from __future__ are directives, not names)
    root = SRC.parent.parent
    paths = [path for folder in ("src", "tests", "scripts")
             for path in sorted((root / folder).rglob("*.py"))]
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {tok.id for tok in ast.walk(tree) if isinstance(tok, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in
                           ((a.asname or a.name).split(".")[0] for a in node.names)
                           if name not in read]
    assert len(paths) > 30
    assert unused == []
