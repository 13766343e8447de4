"""Checks on the package source itself."""

import argparse
import ast
import re
from pathlib import Path

import formulakit
from formulakit import cli

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "formulakit"


def test_no_assert_statements():
    # `python -O` strips `assert`, so an invariant guarded by one silently
    # stops holding there. Running the suite under `-O` cannot catch this:
    # it strips pytest's own asserts too.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in formulakit: {found}"


def test_all_lists_every_import_once_and_resolves():
    names = formulakit.__all__
    assert len(names) == len(set(names)), "duplicates in formulakit.__all__"
    missing = [name for name in names if not hasattr(formulakit, name)]
    assert missing == [], f"formulakit.__all__ names that do not resolve: {missing}"
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported <= set(names), sorted(imported - set(names))


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib: the package supports Python 3.10, which lacks it
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)",
                        (REPO / "pyproject.toml").read_text(encoding="utf-8"), re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    versions = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project.group(1), re.M)
    assert versions == [formulakit.__version__]


def test_importing_the_cli_does_not_import_multiprocessing(run_python):
    # Only `seeds.map_records` with workers > 1 starts a process pool, and
    # it imports multiprocessing there, so the import costs nothing to the
    # commands that never start one.
    proc = run_python(
        "-c", "import sys, formulakit.cli; "
        "print(sorted(name for name in sys.modules if name.startswith('multiprocessing')))",
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _enclosing_calls(name):
    """`module.function` of every call of `name` (a plain name or an
    attribute) in the package, by the innermost function around it."""
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                # ast.walk is breadth-first, so the innermost function comes last
                enclosing = [f.name for f in functions
                             if f.lineno <= node.lineno <= f.end_lineno] or ["<module>"]
                callers.append(f"{path.stem}.{enclosing[-1]}")
    return callers


def test_every_generator_walks_its_records_through_one_map():
    # ingest, generate_pretrain and both fine-tune generators run their
    # per-record function through seeds.map_records, the one place that
    # numbers the records, counts the skips and starts a process pool.
    assert _enclosing_calls("Pool") == ["seeds.map_records"]
    assert sorted(_enclosing_calls("map_records")) == [
        "curation.ingest", "evaluation.gen_completion_finetune",
        "evaluation.gen_repair_finetune", "objectives.generate_pretrain"]


def test_cli_writes_every_output_through_one_path():
    # Every command's artifact and manifest go through cli._emit, and main
    # alone turns a command's outcome into an exit code.
    assert _enclosing_calls("write_manifest") == ["cli._emit"]
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    returning = sorted({f.name for f in tree.body
                        if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")
                        for node in ast.walk(f)
                        if isinstance(node, ast.Return) and node.value is not None})
    assert returning == [], f"commands that return a value: {returning}"


def test_every_command_is_one_row_of_the_cli_table():
    # main builds only the subparser of the command it runs, from
    # cli.COMMANDS; a command wired into the parser any other way would
    # be missing from that subparser, and an unlisted cmd_* never runs.
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    assert list(action.choices) == list(cli.COMMANDS)
    handlers = {row[0] for row in (*cli.COMMANDS.values(), *cli.BASELINE_COMMANDS.values())}
    commands = {fn for name, fn in vars(cli).items()
                if name.startswith("cmd_") and callable(fn)}
    assert commands, "no cmd_* functions in formulakit.cli"
    assert sorted(fn.__name__ for fn in commands - handlers) == []


def test_every_json_read_goes_through_jsonl_loads():
    # jsonl.loads is the one judge of JSON text: it makes text nested past
    # the recursion limit, an integer past the digit limit and a lone
    # surrogate escape a JSONDecodeError, which every reader handles as it
    # handles any invalid JSON, where json.load and json.loads raise
    # RecursionError or ValueError, or return the lone surrogate.
    calls = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "loads")
             and getattr(node.func.value, "id", None) == "json"]
    assert calls == [], f"json.load or json.loads calls in formulakit: {calls}"


def test_only_jsonl_opens_input_text():
    # jsonl.read_lines and jsonl.read_text are the one place that opens an
    # input file, so every reader reports a file that cannot be read, or is
    # not UTF-8, alike. The bundled catalog is a package resource, read in
    # default_catalog, not an input.
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "jsonl.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (getattr(func, "id", None) == "open"
                    or getattr(func, "attr", None) in ("open", "fdopen", "read_text",
                                                       "read_bytes")):
                enclosing = [f.name for f in functions
                             if f.lineno <= node.lineno <= f.end_lineno] or ["<module>"]
                callers.append(f"{path.stem}.{enclosing[-1]}")
    assert callers == ["catalog.default_catalog"]
