"""No public function should have tests as its only callers.

Every public top-level function and class in `src/crisisadapt`, and every
public method of a public class, must be named somewhere in `src/` other
than in its own definition and in `__all__` (a string there, never a name
or an attribute). A top-level name counts where its own module uses it,
where a module imports it and uses it, or as an attribute of a module
alias (`T.linear`); a method counts as any attribute of its name, since
the walk does not know types.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crisisadapt"

# name -> why it stays without a caller in src/
ALLOWED = {
    op: "perfbench's TENSOR_OPS wraps tensor." + op + " by name, so deleting it stops a "
        "benchmark run at set-up"
    for op in ("sub", "mul", "matmul", "relu", "softmax", "transpose", "sum_all", "mean_all")
}


def references(node: ast.AST) -> Counter:
    """How often each name is used under `node`: a bare name as `name`, an
    attribute as `.attr`, and an attribute of a bare name also as
    `owner.attr`."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts["." + sub.attr] += 1
            if isinstance(sub.value, ast.Name):
                counts[f"{sub.value.id}.{sub.attr}"] += 1
    return counts


def definitions(tree: ast.Module):
    """(name, node, is_method) of each public top-level function and class,
    and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item, True


def imports(tree: ast.Module) -> list[tuple[str | None, str, str]]:
    """(module, name, local) of each `from .module import name as local`
    in `tree`; module is None for `from . import name as local`."""
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def keys(imported, in_module: bool, module: str, name: str) -> set[str]:
    """The `references` keys under which a module with the relative
    imports `imported` names `module`'s top-level `name`."""
    found = {name} if in_module else set()
    for source, what, local in imported:
        if source == module and what == name:
            found.add(local)
        elif source is None and what == module:
            found.add(f"{local}.{name}")
    return found


@cache
def unreferenced() -> dict[str, str]:
    """Public definitions that nothing in src/ names outside themselves,
    as name -> file."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    counts = {module: references(tree) for module, tree in trees.items()}
    imported = {module: imports(tree) for module, tree in trees.items()}
    found = {}
    for module, tree in trees.items():
        for name, node, is_method in definitions(tree):
            uses = 0
            for other in trees:
                named = {"." + name} if is_method else keys(imported[other], other == module,
                                                            module, name)
                uses += sum(counts[other][key] for key in named)
                if other == module:
                    own = references(node)
                    uses -= sum(own[key] for key in named)
            if uses == 0:
                found[name] = f"{module}.py"
    return found


def test_every_public_definition_has_a_caller_in_src():
    unused = {name: where for name, where in unreferenced().items() if name not in ALLOWED}
    assert not unused, f"public, but nothing in src/ names them: {unused}"


def test_every_allowed_name_is_still_unreferenced():
    """An entry whose name gained a caller, or went, leaves the list."""
    assert set(ALLOWED) <= set(unreferenced())
