"""Trace serialisation.

Traces can be saved to and loaded from CSV (``src,dst`` per line, with a
commented header carrying metadata) and JSONL (a leading metadata line, then
one JSON object per request).  This lets expensive generated workloads be
reused across benchmark runs and lets users plug in their own datacenter
traces.

Both formats are read by chunked readers (:func:`stream_trace_csv`,
:func:`stream_trace_jsonl`) that yield the file as a
:class:`~repro.traffic.stream.TraceStream` of bounded-size segments, so
multi-GB trace files never fully load; the ``load_trace_*`` functions are
those streams materialized.

Malformed inputs raise :class:`~repro.errors.TrafficError` naming the
offending line; metadata headers are funnelled through the canonical spec
path (:func:`repro.experiments.specs.canonical_data`), so numpy scalars in
``seed``/``params`` serialise cleanly instead of crashing ``json.dumps``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from ..errors import ConfigurationError, TrafficError
from .base import Trace, TraceMetadata
from .stream import TraceStream, validate_chunk_size

__all__ = [
    "save_trace_csv",
    "load_trace_csv",
    "stream_trace_csv",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "stream_trace_jsonl",
]

PathLike = Union[str, Path]


def _header_dict(metadata: TraceMetadata) -> dict:
    """Metadata as a JSON-serialisable header dict.

    Generator params routinely carry numpy scalars (``np.int64`` request
    counts, ``np.float64`` exponents); the canonical spec path converts them
    to plain Python values, and rejects anything genuinely unserialisable
    with the offending path instead of a raw ``TypeError`` from
    ``json.dumps``.
    """
    from ..experiments.specs import canonical_data

    header = {
        "name": metadata.name,
        "n_nodes": metadata.n_nodes,
        "seed": metadata.seed,
        "params": dict(metadata.params),
    }
    try:
        return canonical_data(header, _path="trace metadata")
    except ConfigurationError as exc:
        raise TrafficError(f"trace metadata is not serialisable: {exc}") from exc


def _metadata_from_header(header: dict, path: Path) -> TraceMetadata:
    try:
        return TraceMetadata(
            name=header["name"],
            n_nodes=int(header["n_nodes"]),
            seed=header.get("seed"),
            params=header.get("params", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TrafficError(f"{path} has an invalid metadata header: {exc}") from exc


def _parse_pair(row_src: object, row_dst: object) -> tuple[int, int]:
    """Strictly parse one (src, dst) pair; floats and junk are rejected."""
    out = []
    for value in (row_src, row_dst):
        if isinstance(value, bool):
            raise ValueError(f"rack id must be an integer, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise ValueError(f"rack id must be an integer, got {value!r}")
            value = int(value)
        out.append(int(value))
    return out[0], out[1]


# --------------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------------- #
def save_trace_csv(trace: Trace, path: PathLike) -> None:
    """Write a trace as CSV with a ``#``-prefixed JSON metadata header."""
    path = Path(path)
    header = _header_dict(trace.metadata)
    with path.open("w", newline="") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        for s, d in zip(trace.sources.tolist(), trace.destinations.tolist()):
            writer.writerow([s, d])


def _open_csv(path: PathLike):
    """Open a saved CSV trace; returns ``(file, metadata, reader)`` past the headers."""
    path = Path(path)
    if not path.exists():
        raise TrafficError(f"trace file {path} does not exist")
    fh = path.open("r", newline="")
    try:
        first = fh.readline()
        if not first.startswith("#"):
            raise TrafficError(f"{path} is missing the metadata header line")
        try:
            header = json.loads(first[1:].strip())
        except json.JSONDecodeError as exc:
            raise TrafficError(f"{path} line 1: invalid metadata JSON: {exc}") from exc
        meta = _metadata_from_header(header, path)
        reader = csv.reader(fh)
        column_row = next(reader, None)
        if column_row != ["src", "dst"]:
            raise TrafficError(f"{path} has unexpected column header {column_row}")
        return fh, meta, reader
    except Exception:
        fh.close()
        raise


def _csv_rows(path: Path, reader) -> Iterator[tuple[int, int]]:
    """Yield parsed ``(src, dst)`` rows, mapping parse failures to line numbers."""
    # line_num counts lines the reader consumed, which excludes the metadata
    # line readline() took before the reader was built — +1 gives the 1-based
    # physical file line an editor would jump to.
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 2:
                raise ValueError(f"expected 2 columns, got {len(row)}")
            yield _parse_pair(row[0], row[1])
        except (IndexError, ValueError) as exc:
            raise TrafficError(
                f"{path} line {reader.line_num + 1}: malformed request row "
                f"{row!r}: {exc}"
            ) from None


def load_trace_csv(path: PathLike) -> Trace:
    """Load a trace written by :func:`save_trace_csv`.

    Ragged or non-integer rows raise :class:`TrafficError` naming the line.
    """
    return stream_trace_csv(path).materialize()


def stream_trace_csv(path: PathLike, chunk_size: Optional[int] = None) -> TraceStream:
    """Read a saved CSV trace lazily as a :class:`TraceStream`.

    The metadata header is parsed eagerly (so bad files fail at call time);
    request rows are read in ``chunk_size`` segments on iteration, keeping
    peak memory bounded by the chunk size.  The total length is discovered
    at exhaustion (``n_requests`` is ``None``).
    """
    path = Path(path)
    size = validate_chunk_size(chunk_size)
    fh, meta, reader = _open_csv(path)
    fh.close()

    def factory() -> Iterator[Trace]:
        fh, _, reader = _open_csv(path)
        with fh:
            src: list[int] = []
            dst: list[int] = []
            for s, d in _csv_rows(path, reader):
                src.append(s)
                dst.append(d)
                if len(src) >= size:
                    yield Trace(np.array(src, dtype=np.int32),
                                np.array(dst, dtype=np.int32), meta)
                    src, dst = [], []
            if src:
                yield Trace(np.array(src, dtype=np.int32),
                            np.array(dst, dtype=np.int32), meta)

    return TraceStream(factory, meta, n_requests=None, chunk_size=size)


# --------------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------------- #
def save_trace_jsonl(trace: Trace, path: PathLike) -> None:
    """Write a trace as JSONL: a metadata object followed by one object per request."""
    path = Path(path)
    header = _header_dict(trace.metadata)
    header = {"type": "metadata", **header}
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, (s, d) in enumerate(zip(trace.sources.tolist(), trace.destinations.tolist())):
            fh.write(json.dumps({"i": i, "src": s, "dst": d}) + "\n")


def _jsonl_records(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, object)`` for each non-empty JSONL line."""
    with path.open("r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrafficError(f"{path} line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise TrafficError(
                    f"{path} line {lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            yield lineno, obj


def _jsonl_pair(path: Path, lineno: int, obj: dict) -> tuple[int, int]:
    try:
        return _parse_pair(obj["src"], obj["dst"])
    except (KeyError, ValueError, TypeError) as exc:
        raise TrafficError(
            f"{path} line {lineno}: malformed request record {obj!r}: {exc}"
        ) from None


def load_trace_jsonl(path: PathLike) -> Trace:
    """Load a trace written by :func:`save_trace_jsonl`.

    The metadata line must precede the first request record; malformed
    records raise :class:`TrafficError` naming the line.
    """
    return stream_trace_jsonl(path).materialize()


def stream_trace_jsonl(path: PathLike, chunk_size: Optional[int] = None) -> TraceStream:
    """Read a saved JSONL trace lazily as a :class:`TraceStream`.

    Like :func:`stream_trace_csv`: metadata parsed eagerly, request records
    read in bounded-size segments, total length discovered at exhaustion.
    The metadata line must precede the first request record (the writer
    always puts it first).
    """
    path = Path(path)
    size = validate_chunk_size(chunk_size)
    if not path.exists():
        raise TrafficError(f"trace file {path} does not exist")
    meta: TraceMetadata | None = None
    for lineno, obj in _jsonl_records(path):
        if obj.get("type") == "metadata":
            meta = _metadata_from_header(obj, path)
        break
    if meta is None:
        raise TrafficError(f"{path} must start with the metadata line")

    def factory() -> Iterator[Trace]:
        src: list[int] = []
        dst: list[int] = []
        for lineno, obj in _jsonl_records(path):
            if obj.get("type") == "metadata":
                continue
            s, d = _jsonl_pair(path, lineno, obj)
            src.append(s)
            dst.append(d)
            if len(src) >= size:
                yield Trace(np.array(src, dtype=np.int32),
                            np.array(dst, dtype=np.int32), meta)
                src, dst = [], []
        if src:
            yield Trace(np.array(src, dtype=np.int32),
                        np.array(dst, dtype=np.int32), meta)

    return TraceStream(factory, meta, n_requests=None, chunk_size=size)
