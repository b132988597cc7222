"""The package holds only the program: every public name and every default has a caller.

A top-level function or class of ``src/cfr``, or a public method or property
of a public class, that only the tests reach belongs in ``tests/reference.py``;
this test fails when such a name appears in the package, so test-only routes
do not drift back into it.  Likewise a defaulted parameter of a function or
method, public or private, that no call in the package, the demos or the
benchmark sets is a knob only tests turn: a module constant serves them.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cfr").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _public(body, private=False):
    """(node, first line, last line) of each public def and class in body, and of each private
    one too if private."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and (private or not node.name.startswith("_"))):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node, first, node.end_lineno


def _public_definitions(text):
    """(name, pattern, first line, last line) of each public top-level def and class, and
    of each public method and property of a public class.

    A top-level name is reached by its word, a member by ``.name``.
    """
    for node, first, last in _public(ast.parse(text).body):
        yield node.name, rf"\b{re.escape(node.name)}\b", first, last
        if isinstance(node, ast.ClassDef):
            for member, m_first, m_last in _public(node.body):
                if isinstance(member, ast.FunctionDef):
                    yield (f"{node.name}.{member.name}", rf"\.{re.escape(member.name)}\b",
                           m_first, m_last)


def test_every_public_name_has_a_caller():
    texts = {path: path.read_text(encoding="utf-8") for path in MODULES + DEMOS}
    uncalled = []
    for path in MODULES:
        lines = texts[path].splitlines()
        for name, pattern, first, last in _public_definitions(texts[path]):
            word = re.compile(pattern)
            elsewhere = ["\n".join(lines[: first - 1] + lines[last:]) if p == path else t
                         for p, t in texts.items()]
            if not any(word.search(t) for t in elsewhere):
                uncalled.append(f"{path.stem}.{name}")
    assert not uncalled, f"reached only from tests, move to tests/reference.py: {uncalled}"


def _calls(paths):
    """(callee name, positional argument count, keyword names) of every call in the files."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_default_is_set_by_a_caller():
    """Each defaulted parameter of a function or method, public or private, is passed, by name
    or in its position, by some call of that name in src/cfr, the demos or perfbench."""
    calls = list(_calls(MODULES + DEMOS + BENCH))
    unset = []
    for path in MODULES:
        for node, _, _ in _public(ast.parse(path.read_text(encoding="utf-8")).body, True):
            methods = isinstance(node, ast.ClassDef)
            for fn, _, _ in _public(node.body, True) if methods else [(node, 0, 0)]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                args = fn.args
                params = [a.arg for a in args.posonlyargs + args.args][methods:]
                defaulted = list(enumerate(params))[len(params) - len(args.defaults):] + [
                    (len(params), a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for i, param in defaulted:
                    if not any(name == fn.name and (n > i or param in kw) for name, n, kw in calls):
                        unset.append(f"{path.stem}.{fn.name}({param})")
    assert not unset, f"defaults that only tests set, make them module constants: {unset}"


SOURCE_LINE_CEILING = 2467      # lower it as the package shrinks


def test_source_line_budget():
    """The package's total line count, as `wc -l src/cfr/*.py` reports it, stays in budget."""
    total = sum(path.read_bytes().count(b"\n") for path in MODULES)
    assert total <= SOURCE_LINE_CEILING, f"src/cfr has {total} lines, over {SOURCE_LINE_CEILING}"
