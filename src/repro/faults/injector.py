"""Deterministic, seeded fault injection for the store/queue/scheduler stack.

The robustness contract of the persistent run store and the pull work queue
is only worth anything if the failure paths can actually be *exercised* —
the same fault-injection-first discipline the differential/golden harness
applies to correctness.  This module provides:

* a **registry of named fault sites** (:data:`FAULT_SITES`) instrumented
  throughout :mod:`repro.store.run_store`, :mod:`repro.store.transfer`, and
  :mod:`repro.exec.queue` via :func:`fault_point` /
  :func:`maybe_corrupt` calls;
* a **deterministic seeded injector**: every injection decision is a pure
  function of ``(seed, site, mode, per-site call index)`` via a blake2b
  draw, so a chaos run is *exactly* reproducible — same spec, same seed,
  same injections, in every process that parses the same environment;
* the ``REPRO_FAULTS`` environment syntax (parsed once at import, so worker
  subprocesses inherit the chaos plan automatically)::

      REPRO_FAULTS="store.write:osfail@0.1,queue.claim:delay@0.2"
      REPRO_FAULTS="store.write:corrupt@1.0x1"   # at most 1 injection
      REPRO_FAULTS="worker.crash:crash#2"        # exactly on the 2nd call
      REPRO_FAULTS_SEED=7                        # decision stream seed

Fault modes:

``osfail``
    Raise :class:`InjectedFault` (an :class:`OSError` subclass), modelling
    a transient filesystem error.  The hardened IO layer
    (:mod:`repro.ioutil`) retries these with bounded exponential backoff.
``corrupt``
    Mangle the bytes of the next write at the site (truncate + garbage),
    modelling a torn write on a non-atomic filesystem.  Only meaningful at
    ``*write*`` sites; the read side must quarantine, never abort.
``delay``
    Sleep a few milliseconds, widening race windows (claim contention,
    lease expiry) without changing any result.
``crash``
    SIGKILL the current process, modelling a worker dying mid-task.  Only
    install this against worker subprocesses (via the environment): the
    queue's lease/requeue machinery is what must survive it.

**Zero overhead when off.**  :func:`fault_point` is guarded by a single
module-level plan check (``_PLAN is None``); with no plan installed (the
default — ``REPRO_FAULTS`` unset) instrumented code pays one attribute load
and one comparison per IO operation, nothing else.
"""

from __future__ import annotations

import os
import re
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..obs import count, reset

__all__ = [
    "ENV_FAULTS",
    "ENV_FAULTS_SEED",
    "FAULT_SITES",
    "FAULT_MODES",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "clear_faults",
    "current_plan",
    "fault_point",
    "faults_active",
    "injected_faults",
    "install_faults",
    "maybe_corrupt",
    "parse_faults",
]

#: Environment variable carrying the fault plan (see module docstring).
ENV_FAULTS = "REPRO_FAULTS"

#: Environment variable seeding the injection decision stream (default 0).
ENV_FAULTS_SEED = "REPRO_FAULTS_SEED"

#: Named fault sites instrumented in the store/queue stack.  The name is
#: the contract: tests and ``REPRO_FAULTS`` target these strings, and the
#: instrumented modules must keep calling them from the documented spots.
FAULT_SITES: Dict[str, str] = {
    "store.write": "run-store entry writes (put, tarball import)",
    "store.read": "run-store entry reads (get, scan, history)",
    "queue.claim": "task-claim rename in the work queue",
    "queue.task_write": "task enqueue/requeue writes",
    "queue.task_read": "claimed task payload reads",
    "queue.heartbeat": "lease write/refresh from the worker heartbeat",
    "queue.result_write": "result/failure publications",
    "worker.crash": "worker execution checkpoints (crash mode)",
}

#: Supported fault modes (see module docstring).
FAULT_MODES = ("osfail", "corrupt", "delay", "crash")

#: Bytes appended when corrupting a write (recognisably garbage).
_CORRUPT_MARKER = "\x00<<injected-corruption>>"

#: Default sleep for ``delay`` faults, seconds.
_DELAY_SECONDS = 0.005


class InjectedFault(OSError):
    """A deterministically injected transient IO failure.

    Subclasses :class:`OSError` so every hardened ``except OSError`` path
    (retry loops, graceful degradation, heartbeat continuation) treats it
    exactly like the real thing, while tests can still assert that a
    failure was injected rather than genuine.
    """


@dataclass(frozen=True)
class FaultRule:
    """One parsed ``site:mode@rate`` / ``site:mode#call`` token.

    Attributes
    ----------
    site:
        A :data:`FAULT_SITES` name.
    mode:
        One of :data:`FAULT_MODES`.
    rate:
        Per-call injection probability in ``[0, 1]`` (used when
        ``at_call`` is ``None``).
    at_call:
        1-based call index at which to inject exactly once (``#N`` syntax).
    limit:
        Maximum number of injections for this rule (``xK`` suffix);
        ``None`` means unbounded.
    """

    site: str
    mode: str
    rate: float = 0.0
    at_call: Optional[int] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            known = ", ".join(sorted(FAULT_SITES))
            raise ConfigurationError(
                f"unknown fault site {self.site!r} (known sites: {known})"
            )
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r} "
                f"(known modes: {', '.join(FAULT_MODES)})"
            )
        if self.mode == "corrupt" and "write" not in self.site:
            raise ConfigurationError(
                f"fault mode 'corrupt' only applies to write sites, "
                f"not {self.site!r}"
            )
        if self.at_call is None:
            if not (0.0 <= self.rate <= 1.0):
                raise ConfigurationError(
                    f"fault rate must be in [0, 1], got {self.rate} "
                    f"for site {self.site!r}"
                )
        elif self.at_call < 1:
            raise ConfigurationError(
                f"fault call index must be >= 1, got {self.at_call} "
                f"for site {self.site!r}"
            )
        if self.limit is not None and self.limit < 1:
            raise ConfigurationError(
                f"fault limit must be >= 1, got {self.limit} "
                f"for site {self.site!r}"
            )


_TOKEN_RE = re.compile(
    r"^(?P<site>[a-z_.]+):(?P<mode>[a-z]+)"
    r"(?:@(?P<rate>[0-9.]+)|#(?P<at>[0-9]+))"
    r"(?:x(?P<limit>[0-9]+))?$"
)


def parse_faults(spec: str) -> List[FaultRule]:
    """Parse a ``REPRO_FAULTS`` string into :class:`FaultRule` objects.

    Comma-separated tokens, each ``site:mode@rate[xLIMIT]`` (probabilistic)
    or ``site:mode#CALL[xLIMIT]`` (fire exactly at the CALL-th visit).
    Raises :class:`~repro.errors.ConfigurationError` on any malformed
    token — a chaos run with a typo'd plan must fail loudly, not silently
    test nothing.
    """
    rules: List[FaultRule] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        match = _TOKEN_RE.match(token)
        if match is None:
            raise ConfigurationError(
                f"malformed fault token {token!r} (expected "
                f"'site:mode@rate[xLIMIT]' or 'site:mode#CALL[xLIMIT]', "
                f"e.g. 'store.write:osfail@0.1' or 'worker.crash:crash#2')"
            )
        try:
            rate = float(match.group("rate")) if match.group("rate") else 0.0
        except ValueError:
            raise ConfigurationError(
                f"malformed fault rate in token {token!r}"
            ) from None
        rules.append(
            FaultRule(
                site=match.group("site"),
                mode=match.group("mode"),
                rate=rate,
                at_call=int(match.group("at")) if match.group("at") else None,
                limit=int(match.group("limit")) if match.group("limit") else None,
            )
        )
    if not rules:
        raise ConfigurationError(
            f"fault spec {spec!r} contains no fault rules"
        )
    return rules


def _uniform(seed: int, site: str, mode: str, call: int) -> float:
    """Deterministic uniform draw in [0, 1) for one injection decision."""
    digest = blake2b(
        f"{seed}|{site}|{mode}|{call}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class FaultPlan:
    """An installed set of fault rules plus the decision/injection state.

    Call counters are per ``(site, channel)`` where the channel separates
    :func:`fault_point` visits (``op``) from :func:`maybe_corrupt` visits
    (``corrupt``), so the decision stream of one cannot shift the other.
    All state is process-local: every process participating in a chaos run
    parses the same environment and replays the same decision stream over
    its own call sequence.  Each injection counts ``faults.<site>`` on
    :mod:`repro.obs` (all modes pooled).
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0):
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._calls: Dict[tuple, int] = {}
        self._fired: Dict[FaultRule, int] = {}

    def _select(self, site: str, channel: str, modes: Sequence[str]) -> Optional[FaultRule]:
        """The first rule firing at this visit of ``site``, if any."""
        rules = [r for r in self.rules if r.site == site and r.mode in modes]
        if not rules:
            return None
        key = (site, channel)
        call = self._calls.get(key, 0) + 1
        self._calls[key] = call
        for rule in rules:
            fired = self._fired.get(rule, 0)
            if rule.limit is not None and fired >= rule.limit:
                continue
            if rule.at_call is not None:
                hit = call == rule.at_call
            else:
                hit = _uniform(self.seed, site, rule.mode, call) < rule.rate
            if hit:
                self._fired[rule] = fired + 1
                count(f"faults.{site}")
                return rule
        return None

    def trip(self, site: str) -> None:
        """Apply any osfail/delay/crash rule due at this visit of ``site``."""
        rule = self._select(site, "op", ("osfail", "delay", "crash"))
        if rule is None:
            return
        if rule.mode == "osfail":
            raise InjectedFault(
                f"injected transient fault at {site} "
                f"(seed {self.seed}, call {self._calls[(site, 'op')]})"
            )
        if rule.mode == "delay":
            time.sleep(_DELAY_SECONDS)
            return
        # crash: model SIGKILL — no cleanup, no atexit, no finally blocks.
        os.kill(os.getpid(), signal.SIGKILL)

    def corrupt(self, site: str, text: str) -> str:
        """Possibly mangle ``text`` for a write at ``site``."""
        rule = self._select(site, "corrupt", ("corrupt",))
        if rule is None:
            return text
        return text[: max(1, len(text) // 2)] + _CORRUPT_MARKER


#: The installed plan; ``None`` (the default) short-circuits every hook.
_PLAN: Optional[FaultPlan] = None


def faults_active() -> bool:
    """Whether a fault plan is currently installed in this process."""
    return _PLAN is not None


def current_plan() -> Optional[FaultPlan]:
    """The installed :class:`FaultPlan`, or ``None``."""
    return _PLAN


def fault_point(site: str) -> None:
    """Instrumentation hook: maybe inject a fault at ``site``.

    A no-op (one module-global comparison) unless a plan is installed.
    """
    plan = _PLAN
    if plan is None:
        return
    plan.trip(site)


def maybe_corrupt(site: str, text: str) -> str:
    """Instrumentation hook: maybe mangle the bytes of a write at ``site``."""
    plan = _PLAN
    if plan is None:
        return text
    return plan.corrupt(site, text)


def install_faults(
    spec: Union[str, Sequence[FaultRule]], seed: Optional[int] = None
) -> FaultPlan:
    """Install a fault plan process-wide; returns it.

    ``spec`` is a ``REPRO_FAULTS`` string or a pre-built rule sequence;
    ``seed`` defaults to ``REPRO_FAULTS_SEED`` (then 0).  Replaces any
    previously installed plan and resets the ``faults.<site>`` injection
    counts on :mod:`repro.obs`, so they count this plan's injections.
    """
    global _PLAN
    rules = parse_faults(spec) if isinstance(spec, str) else list(spec)
    if seed is None:
        raw = os.environ.get(ENV_FAULTS_SEED, "0").strip() or "0"
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{ENV_FAULTS_SEED} must be an integer, got {raw!r}"
            ) from None
    _PLAN = FaultPlan(rules, seed=seed)
    reset("faults.")
    return _PLAN


def clear_faults() -> None:
    """Remove the installed fault plan (back to the zero-overhead path)."""
    global _PLAN
    _PLAN = None


@contextmanager
def injected_faults(
    spec: Union[str, Sequence[FaultRule]], seed: int = 0
) -> Iterator[FaultPlan]:
    """Context manager installing a plan for the block, then clearing it."""
    plan = install_faults(spec, seed=seed)
    try:
        yield plan
    finally:
        clear_faults()


def _init_from_env() -> None:
    """Install the plan named by ``REPRO_FAULTS`` (import-time, once).

    Worker subprocesses inherit the environment, so a chaos run covers
    every participant without extra plumbing.  A malformed value raises
    immediately: a chaos plan that silently tests nothing is worse than a
    crash.
    """
    spec = os.environ.get(ENV_FAULTS, "").strip()
    if spec:
        install_faults(spec)


_init_from_env()
