"""JSONL and artifact I/O: the input readers, atomic writers, run manifests.

Only this module opens input text (`read_lines`, `read_text`) and judges
JSON text. Every JSON row and document the package reads goes through
`loads`, and every JSONL row it writes through `dumps`. Each is the C half
of its `json` counterpart, built once at import: `loads` runs the steps of
`json.loads` (the BOM check, the whitespace skip, the C scanner, then
`Expecting value` or `Extra data` at the same positions) without its two
Python wrapper frames, and `dumps` calls one prebuilt C encoder, where
`JSONEncoder.encode` builds one per call. Both give `json`'s values, bytes
and errors, but `loads` also rejects three kinds of text, so that every
reader treats them as invalid JSON: nesting past the recursion limit, an
integer past the digit limit and a lone surrogate escape in the value.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO, Union

PathLike = Union[str, Path]
# What `write_manifest` appends to an artifact's name.
MANIFEST_SUFFIX = ".manifest.json"


class DataError(Exception):
    """Bad input data; the message starts `<file>: ` or `<file>:<line>: `."""

    def __init__(self, message: str, path: Optional[str] = None, line: Optional[int] = None):
        where = "" if path is None else f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")


_scan = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match
# The arguments JSONEncoder(ensure_ascii=False, separators=(",", ":")) passes
# to the C encoder, but for the circular-reference markers: the package's
# rows are trees, and a dict shared by every call would keep the containers
# of a failed call marked. A cycle raises RecursionError instead of
# ValueError.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
    ":", ",", False, False, True)


def loads(text: str) -> Any:
    """`json.loads(text)`: the same value, or a JSONDecodeError with the same
    msg and position, except that text nested past the recursion limit, an
    integer past `sys.get_int_max_str_digits()` and a string with no UTF-8
    form (a lone surrogate escape) are each a JSONDecodeError at the start
    of the value."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = _skip_space(text, 0).end()
    try:
        obj, end = _scan(text, start)
        # Only a \u escape makes a lone surrogate in UTF-8 text; dumps nests as deep.
        surrogate = "\\u" in text and not has_utf8(dumps(obj))
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", text, err.value) from None
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, start) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a literal past the digit limit
        raise json.JSONDecodeError(f"integer longer than {sys.get_int_max_str_digits()} "
                                   "digits", text, start) from None
    if end != len(text):
        end = _skip_space(text, end).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    if surrogate:
        raise json.JSONDecodeError("string with no UTF-8 form (a lone surrogate escape)",
                                   text, start)
    return obj


def dumps(value: Any) -> str:
    """A row's compact JSON text, `json.dumps(value, ensure_ascii=False,
    separators=(",", ":"))`: a value JSON cannot hold raises TypeError."""
    return "".join(_encode(value, 0))


def has_utf8(text: str) -> bool:
    """False when text holds a lone surrogate, which has no UTF-8 form."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@contextmanager
def _open_text(path: PathLike, what: str) -> Iterator[TextIO]:
    """A UTF-8 handle on `path`; unreadable or non-UTF-8 text is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}", str(path)) from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} is not UTF-8 text ({exc.reason})", str(path)) from None


def read_lines(path: PathLike) -> Iterator[str]:
    """The lines of a UTF-8 input file, read as they are pulled. A file
    that starts with a UTF-8 BOM is a DataError naming line 1, so that no
    reader takes the BOM for text or skips the line it starts."""
    with _open_text(path, "input") as fh:
        first = fh.readline()
        if first.startswith("\ufeff"):
            raise DataError("starts with a UTF-8 BOM; save the file as UTF-8 without one",
                            str(path), 1)
        if first:
            yield first
        yield from fh


def read_text(path: PathLike, what: str) -> str:
    """The whole text of a UTF-8 file, in one `read()`; `what` names the
    file's kind in a DataError."""
    with _open_text(path, what) as fh:
        return fh.read()


def read_jsonl(path: PathLike) -> Iterator[tuple[int, Any]]:
    """Yield (line_number, parsed_object), skipping blank lines; raises
    DataError on a line `loads` rejects."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON ({exc.msg})", str(path), lineno) from None
        yield lineno, obj


def read_formulas(path: PathLike) -> Iterator[str]:
    """Formulas from a file: JSONL records (uses .formula) or plain lines.
    A line that starts with `{` is a JSON object row: one that `loads`
    rejects (a truncated record, say) or that has no string `.formula` is a
    DataError."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("{"):
            try:
                obj = loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line starts with `{{` but is not a JSON object: "
                                f"{exc.msg} at column {exc.colno}", str(path), lineno) from None
            formula = obj.get("formula")
            if not isinstance(formula, str):
                raise DataError("JSON object row needs a string `formula`", str(path), lineno)
            yield formula
            continue
        yield line


def read_rows(path: PathLike, what: str, build: Callable[[dict, int], Any],
              source_id: Optional[Callable[[Any], str]] = None) -> list:
    """One build(row, line_number) per row of a strict JSONL file. A row that
    is not an object, or that `build` rejects (KeyError, TypeError, ValueError),
    is a DataError saying `what` a row needs; with `source_id`, so is a row
    whose source_id(row) an earlier row has, naming both lines."""
    rows = []
    lines: dict[str, int] = {}  # source_id -> the line that has it
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj, dict):
            raise DataError(what, str(path), lineno)
        try:
            row = build(obj, lineno)
        except (KeyError, TypeError, ValueError):
            raise DataError(what, str(path), lineno) from None
        if source_id is not None:
            sid = source_id(row)
            first = lines.setdefault(sid, lineno)
            if first != lineno:
                raise DataError(f"source_id {sid!r} repeats line {first}", str(path), lineno)
        rows.append(row)
    return rows


@contextmanager
def _atomic_text(path: PathLike) -> Iterator[TextIO]:
    """A UTF-8 text handle on a temp file beside `path` that replaces `path`
    when the block ends; on any failure the temp file is removed and
    `path` is left as it was. The output gets the mode of a newly created
    file, 0o666 less the umask, where the temp file alone would keep its
    0o600. An output that cannot be made (its directory cannot be created,
    no temp file can be opened there, or `path` cannot be replaced, say
    because it is a directory) is a DataError naming it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write output: {exc}", str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        umask = os.umask(0)  # os.umask sets as it reads: restore it at once
        os.umask(umask)
        try:
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except OSError as exc:
            raise DataError(f"cannot write output: {exc}", str(path)) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_jsonl_atomic(path: PathLike, rows: Iterable[Any]) -> int:
    """Write rows as JSONL via temp file + rename; returns the row count."""
    count = 0
    with _atomic_text(path) as fh:
        for row in rows:
            fh.write(dumps(row))
            fh.write("\n")
            count += 1
    return count


def write_json_atomic(path: PathLike, obj: Any) -> None:
    with _atomic_text(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def sha256_file(path: PathLike) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(
    artifact: PathLike,
    subcommand: str,
    config: dict[str, Any],
    inputs: Iterable[PathLike] = (),
) -> Path:
    """Record config and content hashes next to an artifact for repro audits."""
    artifact = Path(artifact)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": sha256_text(json.dumps(config, sort_keys=True, ensure_ascii=False)),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "artifacts": {str(artifact): sha256_file(artifact)},
    }
    out = artifact.with_name(artifact.name + MANIFEST_SUFFIX)
    write_json_atomic(out, manifest)
    return out
