"""Unit extraction: files -> units (one row per function / file unit).

Semantics mirror the reference exactly:
* python files: ``ast.parse`` + a walk over ClassDef / FunctionDef /
  AsyncFunctionDef keeping a name stack (nested qualified names a.b.c),
  slicing source lines lineno..end_lineno; parse errors swallow to zero
  units (reference parsing/python_ast.py:24-67). The walk visits
  statement lists only, since a def can sit nowhere else.
* each python unit also carries ``func_text``, its FUNC snippet text,
  equal to ``snippets.normalize_source(code)`` but taken from the
  file's AST instead of a second parse (see ``_func_text``).
* everything else: the whole file as a single pseudo-unit named after
  the file basename, span 1..n_lines; blank files dropped (reference
  parsing/text_units.py:9-27).

Engine shape: a stateless flat-map — one input file row fans out to N
unit rows — run as ``map_batches(extract_units_batch,
batch_format="pyarrow")`` so the streaming executor fuses it with the
surrounding stages.
"""

from __future__ import annotations

import ast
import posixpath
import re

import pyarrow as pa

from clonehunter_ray.functions.hashing import sha256_hex
from clonehunter_ray.stages.snippets import strip_docstring_nodes, strip_docstrings

UNITS_SCHEMA = pa.schema(
    [
        ("unit_id", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("qualified_name", pa.string()),
        ("start_line", pa.int32()),
        ("end_line", pa.int32()),
        ("code", pa.string()),
        ("code_hash", pa.string()),
        # normalize_source(code) for python units, null for text units
        ("func_text", pa.string()),
    ]
)


def unit_identity(path: str, qualified_name: str, start: int, end: int) -> str:
    """Reference ``FunctionRef.identity`` (core/types.py:27-29)."""
    return f"{path}:{qualified_name}:{start}:{end}"


def detect_language(path: str, lang: str | None) -> str:
    """Prefer the table's lang column; fall back to the reference's
    suffix rule (io/fs.py:11-14): .py -> python, else text."""
    if lang:
        return lang
    return "python" if path.endswith(".py") else "text"


# the only fields that hold statements; a def or class can sit nowhere
# else, so the walk never descends into expressions
_STMT_LIST_FIELDS = frozenset(("body", "orelse", "finalbody", "handlers", "cases"))
# node class -> its statement-list fields, in ``_fields`` order
_WALK_FIELDS: dict[type, tuple[str, ...]] = {}
# line breaks of str.splitlines that the parser does not break on: with
# one in the file, a unit's code lines are not its AST node's lines
_SPLIT_ONLY_BREAKS = re.compile("[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _func_text(node: ast.AST, code: str) -> str:
    """``normalize_source(code)`` for the def ``node`` whose source
    lines are ``code``, without parsing ``code`` again.

    An indented def's code opens with an indent, so its parse raises
    "unexpected indent" and the text is the code verbatim. A def at
    column 0 parses to the same tree as the file's node minus its
    decorators (they sit above ``lineno``), so the text is that node,
    docstrings stripped, unparsed. A trailing backslash would join the
    code's last line to the next one in the file and not in the code,
    so that code goes through the parse. Strips ``node``'s docstrings
    and decorators in place; the unit walk reads neither."""
    if node.col_offset:
        return code
    if code.endswith("\\"):
        return strip_docstrings(code)
    node.decorator_list = []
    return ast.unparse(strip_docstring_nodes(node))


def extract_python_units(path: str, source: str) -> list[dict]:
    """AST function extraction (reference parsing/python_ast.py:24-67).

    Visits statements only (``_STMT_LIST_FIELDS``, each node's fields
    in ``_fields`` order), which yields the same units in the same
    order as the reference's walk over every child node at half the
    cost (tests/test_extract_snippets.py keeps that walk as the
    oracle). Each unit's ``func_text`` comes from the same tree
    (``_func_text``), unless the file holds a line break that only
    ``str.splitlines`` splits on, where it is ``strip_docstrings(code)``."""
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError):
        return []
    lines = source.splitlines()
    exact = not _SPLIT_ONLY_BREAKS.search(source)
    out: list[dict] = []
    stack: list[str] = []

    def visit(node: ast.AST) -> None:
        fields = _WALK_FIELDS.get(type(node))
        if fields is None:
            fields = _WALK_FIELDS[type(node)] = tuple(
                f for f in node._fields if f in _STMT_LIST_FIELDS
            )
        for name in fields:
            for child in getattr(node, name):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = getattr(child, "lineno", 1)
                    end = getattr(child, "end_lineno", start)
                    code = "\n".join(lines[start - 1 : end])
                    qualified = ".".join([*stack, child.name])
                    out.append(
                        {
                            "qualified_name": qualified,
                            "start_line": start,
                            "end_line": end,
                            "code": code,
                            "func_text": _func_text(child, code)
                            if exact
                            else strip_docstrings(code),
                        }
                    )
                    stack.append(child.name)
                    visit(child)
                    stack.pop()
                elif isinstance(child, ast.ClassDef):
                    stack.append(child.name)
                    visit(child)
                    stack.pop()
                else:
                    visit(child)

    visit(tree)
    return out


def extract_text_unit(path: str, source: str) -> list[dict]:
    """Whole-file pseudo-unit (reference parsing/text_units.py:9-27)."""
    if not source.strip():
        return []
    end_line = max(1, len(source.splitlines()))
    return [
        {
            "qualified_name": posixpath.basename(path),
            "start_line": 1,
            "end_line": end_line,
            "code": source,
        }
    ]


def extract_units_batch(batch: pa.Table) -> pa.Table:
    """files batch -> units batch (1 file row -> N unit rows)."""
    repos = batch["repo"].to_pylist()
    paths = batch["path"].to_pylist()
    commits = batch["commit"].to_pylist() if "commit" in batch.column_names else [""] * len(paths)
    langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * len(paths)
    contents = batch["content"].to_pylist()

    cols: dict[str, list] = {name: [] for name in UNITS_SCHEMA.names}
    for repo, path, commit, lang, content in zip(repos, paths, commits, langs, contents):
        if content is None:
            continue
        lang = detect_language(path, lang)
        units = (
            extract_python_units(path, content)
            if lang == "python"
            else extract_text_unit(path, content)
        )
        for u in units:
            cols["unit_id"].append(
                unit_identity(path, u["qualified_name"], u["start_line"], u["end_line"])
            )
            cols["repo"].append(repo)
            cols["path"].append(path)
            cols["commit"].append(commit)
            cols["lang"].append(lang)
            cols["qualified_name"].append(u["qualified_name"])
            cols["start_line"].append(u["start_line"])
            cols["end_line"].append(u["end_line"])
            cols["code"].append(u["code"])
            cols["code_hash"].append(sha256_hex(u["code"]))
            cols["func_text"].append(u.get("func_text"))
    return pa.Table.from_pydict(cols, schema=UNITS_SCHEMA)


def add_content_sha256(batch: pa.Table) -> pa.Table:
    """Add the per-row ``content_sha256`` invariant column
    (BASELINE.json input_hint; reference io/fingerprints.py:6-7)."""
    hashes = [sha256_hex(c) if c is not None else None for c in batch["content"].to_pylist()]
    return batch.append_column("content_sha256", pa.array(hashes, pa.string()))
