"""Streaming trace protocol.

A :class:`TraceStream` is a lazy sequence of :class:`~repro.traffic.base.Trace`
*segments* sharing one :class:`~repro.traffic.base.TraceMetadata`.  It is the
streaming counterpart of a materialized trace: the engine consumes segments
as they arrive, so peak memory is bounded by the segment (chunk) size rather
than the trace length, while replay stays **bit-identical** to materialized
replay (certified by the streaming differential harness in
``tests/test_streaming_engine.py``).

Protocol
--------
* Iterating a stream yields ``Trace`` segments whose ``offset`` is the global
  index of their first request, assigned by the stream itself — segment
  request timestamps are therefore global, exactly as in the reference
  per-request path.
* ``n_requests`` is either declared up front (synthetic generators know it)
  or ``None``, in which case the total length is discovered at exhaustion
  (the engine then plans checkpoints with a tail-flush strategy).
* Streams built from a segment *factory* (a zero-argument callable returning
  a fresh iterator) are re-iterable; each iteration regenerates the same
  segments deterministically.  Streams built from a plain iterable can be
  consumed once.

Construction
------------
* Every registered workload is a stream factory
  (:func:`repro.traffic.registry.make_workload_stream`).  The generators
  produce each chunk from one persistent or counter-advanced RNG
  (:func:`fork_generator`), so the requests do not depend on the chunk
  size, and a workload's materialized trace is its stream concatenated
  (:meth:`TraceStream.materialize`).
* :meth:`TraceStream.from_trace` slices an existing materialized trace into
  chunks (no memory win, same protocol).  ``facebook-hadoop`` streams this
  way: its background interleave is a global argsort over the whole trace.
* :func:`repro.traffic.io.stream_trace_csv` / ``stream_trace_jsonl`` read
  saved trace files in bounded-memory chunks; the ``load_trace_*`` readers
  materialize them.

Fan-out
-------
:meth:`TraceStream.tee` splits one stream into several consumers with a
bounded lookahead buffer — the runner uses it to replay one shared stream
through multiple algorithms in lockstep
(:meth:`repro.simulation.runner.ExperimentRunner.compare_on_shared_trace`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Union

import numpy as np

from ..errors import TrafficError
from .base import Trace, TraceMetadata

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "TraceStream",
    "chunk_bounds",
    "fork_generator",
    "validate_chunk_size",
]

#: Default segment size for chunked generation and IO (requests per segment).
DEFAULT_CHUNK_SIZE = 8_192

SegmentSource = Union[Iterable[Trace], Callable[[], Iterator[Trace]]]


def fork_generator(rng: np.random.Generator, offset: int) -> np.random.Generator:
    """A new generator at ``rng``'s current state advanced by ``offset`` draws.

    The temporal generators split one RNG bitstream into phase streams
    (fresh samples / repeat flags / repeat picks) by advancing forked
    copies of the underlying PCG64 counter — each 53-bit double consumed by
    ``Generator.random`` advances the counter by exactly one step, so
    ``fork_generator(rng, n)`` starts where phase one ends after ``n`` draws.
    The source generator is left untouched.

    PCG64 state also carries a buffered half-draw: bounded ``integers`` with
    a small range consume 32-bit halves of each 64-bit output and stash the
    unused half (``has_uint32``/``uinteger``).  Double draws never touch that
    buffer, but ``PCG64.advance`` silently discards it — so it is re-attached
    after advancing, keeping a fork's integer stream bit-identical to the
    source generator reaching the same counter by consuming doubles.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TrafficError(
            "chunked generation requires a PCG64-backed generator (numpy's "
            f"default_rng), got {type(bitgen).__name__}"
        )
    state = bitgen.state
    clone = np.random.PCG64()
    clone.state = state
    if offset:
        clone.advance(offset)
        advanced = clone.state
        advanced["has_uint32"] = state["has_uint32"]
        advanced["uinteger"] = state["uinteger"]
        clone.state = advanced
    return np.random.Generator(clone)


class TraceStream:
    """A lazy stream of :class:`Trace` segments over one rack set.

    Parameters
    ----------
    segments:
        Either an iterable of ``Trace`` segments or a zero-argument callable
        returning a fresh segment iterator (making the stream re-iterable).
        Segment offsets are (re)assigned by the stream: the first segment
        starts at global index 0, each subsequent one where the previous
        ended.
    metadata:
        The shared trace metadata (name, rack count, seed, params).
    n_requests:
        Declared total length, or ``None`` to discover it at exhaustion.
    chunk_size:
        Advisory segment size the stream was built with (introspection only).
    """

    def __init__(
        self,
        segments: SegmentSource,
        metadata: TraceMetadata,
        n_requests: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        if n_requests is not None and n_requests < 0:
            raise TrafficError(f"n_requests must be non-negative, got {n_requests}")
        if callable(segments):
            self._factory: Optional[Callable[[], Iterator[Trace]]] = segments
            self._iterable: Optional[Iterable[Trace]] = None
        else:
            self._factory = None
            self._iterable = segments
        self._consumed = False
        self.metadata = metadata
        self.n_requests = None if n_requests is None else int(n_requests)
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trace(cls, trace: Trace, chunk_size: int = DEFAULT_CHUNK_SIZE) -> "TraceStream":
        """Slice a materialized trace into a (re-iterable) chunk stream."""
        chunk_size = validate_chunk_size(chunk_size)

        def factory() -> Iterator[Trace]:
            for start in range(0, len(trace), chunk_size):
                yield trace[start : start + chunk_size]

        return cls(factory, trace.metadata, n_requests=len(trace), chunk_size=chunk_size)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Workload name from the metadata."""
        return self.metadata.name

    @property
    def n_nodes(self) -> int:
        """Number of racks addressed by the stream."""
        return self.metadata.n_nodes

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Trace]:
        if self._factory is not None:
            source = self._factory()
        else:
            if self._consumed:
                raise TrafficError(
                    f"stream {self.name!r} was built from a plain iterable and "
                    "has already been consumed (construct it from a factory "
                    "callable to make it re-iterable)"
                )
            self._consumed = True
            source = iter(self._iterable)  # type: ignore[arg-type]
        position = 0
        for segment in source:
            if not isinstance(segment, Trace):
                raise TrafficError(
                    f"stream {self.name!r} produced a {type(segment).__name__}, "
                    "expected a Trace segment"
                )
            if segment.n_nodes != self.n_nodes:
                raise TrafficError(
                    f"stream {self.name!r} produced a segment over "
                    f"{segment.n_nodes} racks, expected {self.n_nodes}"
                )
            if len(segment) == 0:
                continue
            yield segment.with_offset(position)
            position += len(segment)
        if self.n_requests is not None and position != self.n_requests:
            raise TrafficError(
                f"stream {self.name!r} declared {self.n_requests} requests "
                f"but produced {position}"
            )

    def materialize(self) -> Trace:
        """Concatenate every segment into one materialized :class:`Trace`.

        This is how every materialized workload trace and loaded trace file
        is built; it defeats the memory bound by definition.
        """
        sources: List[np.ndarray] = []
        destinations: List[np.ndarray] = []
        for segment in self:
            sources.append(segment.sources)
            destinations.append(segment.destinations)
        if not sources:
            sources = [np.zeros(0, dtype=np.int32)]
            destinations = [np.zeros(0, dtype=np.int32)]
        return Trace(
            np.concatenate(sources), np.concatenate(destinations), self.metadata
        )

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #
    def tee(self, n: int, max_lookahead: int = 4) -> List["TraceStream"]:
        """Split this stream into ``n`` consumers with bounded buffering.

        Each returned stream yields exactly the segments of the source, in
        order.  Segments are pulled from the source on demand and buffered
        until every consumer has seen them; a consumer that runs more than
        ``max_lookahead`` segments ahead of the slowest raises
        :class:`TrafficError` instead of buffering without bound.  Lockstep
        consumption (round-robin over the children, as the runner's shared
        stream fan-out does) keeps at most one segment buffered.
        """
        if n < 1:
            raise TrafficError(f"tee needs n >= 1 consumers, got {n}")
        if max_lookahead < 1:
            raise TrafficError(f"max_lookahead must be >= 1, got {max_lookahead}")
        source = iter(self)
        buffers: List[Deque[Trace]] = [deque() for _ in range(n)]
        exhausted = [False]

        def pull(me: int) -> None:
            if exhausted[0]:
                return
            if max(len(b) for b in buffers) >= max_lookahead:
                raise TrafficError(
                    f"tee consumer {me} ran more than {max_lookahead} segments "
                    "ahead of the slowest consumer; consume the children in "
                    "lockstep or raise max_lookahead"
                )
            try:
                segment = next(source)
            except StopIteration:
                exhausted[0] = True
                return
            for buffer in buffers:
                buffer.append(segment)

        def child(i: int) -> Iterator[Trace]:
            while True:
                if not buffers[i]:
                    pull(i)
                    if not buffers[i]:
                        return
                yield buffers[i].popleft()

        return [
            TraceStream(
                child(i), self.metadata,
                n_requests=self.n_requests, chunk_size=self.chunk_size,
            )
            for i in range(n)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        length = "?" if self.n_requests is None else f"{self.n_requests}"
        return f"<TraceStream {self.name!r} requests={length} nodes={self.n_nodes}>"


def chunk_bounds(n_requests: int, chunk_size: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` index pairs covering ``n_requests`` in chunks."""
    for start in range(0, n_requests, chunk_size):
        yield start, min(start + chunk_size, n_requests)


def validate_chunk_size(chunk_size: Optional[int]) -> int:
    """Normalise a chunk-size argument (``None`` means the default)."""
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    size = int(chunk_size)
    if size != chunk_size or size < 1:
        raise TrafficError(f"chunk_size must be a positive integer, got {chunk_size!r}")
    return size
