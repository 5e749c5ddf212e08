"""No public function should have tests as its only callers, and no knob
should do nothing.

Every public top-level function and class in `src/crisisadapt`, and every
public method of a public class, must be named somewhere in `src/` other
than in its own definition and in `__all__` (a string there, never a name
or an attribute). A top-level name counts where its own module uses it,
where a module imports it and uses it, or as an attribute of a module
alias (`T.linear`); a method counts as any attribute of its name, since
the walk does not know types.

Every parameter with a default of such a function or method must be set
by some call in `src/` outside its own definition, by keyword or by a
position before any `*` unpacking. Unpacking, `*` or `**`, sets nothing
the walk can name, so it counts for no parameter. Calls are matched to
definitions as names are above.

Every text artifact is written through `files.write_lines` or
`files.write_json`, so no module but `files` and `checkpoint`, whose
format is binary, calls `files.write_atomic`.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crisisadapt"

# the modules that may call files.write_atomic
WRITE_ATOMIC_CALLERS = {"files", "checkpoint"}

# name -> why it stays without a caller in src/
ALLOWED = {
    op: "perfbench's TENSOR_OPS wraps tensor." + op + " by name, so deleting it stops a "
        "benchmark run at set-up"
    for op in ("sub", "mul", "matmul", "relu", "softmax", "transpose", "sum_all", "mean_all")
}

# (function, parameter) -> why the parameter stays without a setter in src/
ALLOWED_KNOBS = {
    ("main", "argv"): "the console script calls main() with none, and tests pass argv",
    ("train", "max_steps"): "tests stop a run at step k to check that resuming it equals a "
                            "straight run; ROADMAP item 5's --save-every will set it",
    ("train", "on_epoch_end"): "perfbench's recorder times epochs through it",
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
def parsed() -> tuple[dict[str, ast.Module], dict[str, list]]:
    """Each module of src/ by name, parsed, and its relative imports."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    return trees, {module: imports(tree) for module, tree in trees.items()}


@cache
def unreferenced() -> dict[str, str]:
    """Public definitions that nothing in src/ names outside themselves,
    as name -> file."""
    trees, imported = parsed()
    counts = {module: references(tree) for module, tree in trees.items()}
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


def defaulted(node: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter of `node` that has a default; the
    position is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def callee(call: ast.Call) -> set[str]:
    """The `references` keys of what `call` calls."""
    func = call.func
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        owner = {f"{func.value.id}.{func.attr}"} if isinstance(func.value, ast.Name) else set()
        return {"." + func.attr} | owner
    return set()


def sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter `name`, which sits at
    `position` among the positional arguments (None: keyword-only)."""
    if any(keyword.arg == name for keyword in call.keywords):
        return True
    # positions from the first `*` unpacking on are not known
    known = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
                 len(call.args))
    return position is not None and known > position


@cache
def unset_knobs() -> dict[tuple[str, str], str]:
    """Defaulted parameters of public functions and methods (outside
    ALLOWED) that no call in src/ outside their definition sets, as
    (function, parameter) -> file."""
    trees, imported = parsed()
    calls = {module: [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
             for module, tree in trees.items()}
    found = {}
    for module, tree in trees.items():
        for name, node, is_method in definitions(tree):
            if not isinstance(node, ast.FunctionDef) or name in ALLOWED:
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            callers = [call for other in trees for call in calls[other]
                       if id(call) not in inside and callee(call) & (
                           {"." + name} if is_method
                           else keys(imported[other], other == module, module, name))]
            for position, param in defaulted(node):
                # a method's calls bind `self` before their first argument
                at = None if position is None else position - is_method
                if not any(sets(call, at, param) for call in callers):
                    found[(name, param)] = f"{module}.py"
    return found


def test_every_public_definition_has_a_caller_in_src():
    unused = {name: where for name, where in unreferenced().items() if name not in ALLOWED}
    assert not unused, f"public, but nothing in src/ names them: {unused}"


def test_every_allowed_name_is_still_unreferenced():
    """An entry whose name gained a caller, or went, leaves the list."""
    assert set(ALLOWED) <= set(unreferenced())


def test_every_defaulted_parameter_is_set_somewhere_in_src():
    unset = {knob: where for knob, where in unset_knobs().items() if knob not in ALLOWED_KNOBS}
    assert not unset, f"defaulted, but no call in src/ sets them: {unset}"


def test_every_allowed_knob_is_still_unset():
    """An entry whose parameter gained a setter, or went, leaves the list."""
    assert set(ALLOWED_KNOBS) <= set(unset_knobs())


def test_only_files_and_checkpoint_call_write_atomic():
    trees, _ = parsed()
    calls = [f"{module}.py:{node.lineno}" for module, tree in trees.items()
             if module not in WRITE_ATOMIC_CALLERS
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and callee(node) & {"write_atomic", ".write_atomic"}]
    assert not calls, f"write text artifacts with files.write_lines or write_json: {calls}"
