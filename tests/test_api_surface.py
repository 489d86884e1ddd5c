"""Every public module-level function in src/ has a caller in src/.

A function counts as called when some other part of src/ names it: a bare
name or an attribute of that name, outside the function's own body.  An
import or an ``__all__`` entry is not a call.  The allow-list keeps the
functions that serve outside src/, each with its reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ALLOWED = {
    "sine_integral": "acceptance criterion 7 checks Si(pi) through it",
    "tricomi_u": "the tests check the point evaluator of U through it",
    "reconstruct_wavefunction": "the excited-matrix benchmark samples it",
}


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _surface():
    """(public functions as (module, name), names referenced anywhere in
    src/ outside the body of a function of that name in that module)."""
    public, referenced = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = stmt.name
                if not own.startswith("_"):
                    public.append((module, own))
            referenced.update((module, name) if name == own else name
                              for name in _referenced_names(stmt))
    return public, referenced


def test_every_public_function_has_a_caller():
    public, referenced = _surface()
    assert public
    uncalled = [f"{module}.{name}" for module, name in public
                if name not in referenced and name not in ALLOWED]
    assert uncalled == []


def test_allow_list_names_only_uncalled_functions():
    # a name that gains a caller in src/ leaves the list
    public, referenced = _surface()
    names = {name for _, name in public}
    assert set(ALLOWED) <= names
    assert [name for name in ALLOWED if name in referenced] == []
