"""Chaos tier: deterministic fault injection and hardened failure semantics.

What this file certifies (see :mod:`repro.faults` and ``REPRO_FAULTS``):

* the injector is **deterministic**: every decision is a pure function of
  ``(seed, site, mode, call index)``, so a chaos run replays exactly;
* fault injection is **off by default with zero overhead** — one
  module-level plan check guards every hook;
* transient ``OSError`` on store/queue IO is absorbed by **bounded retry
  with backoff** (``REPRO_IO_RETRIES``/``REPRO_IO_BACKOFF``);
* corrupt store entries **quarantine as a miss** (RuntimeWarning + counter)
  instead of aborting a run, and a persistently unwritable store degrades
  to cold execution;
* the chaos differentials: a matrix run under injected transient faults is
  **bit-identical** to the fault-free run on the serial and queue backends,
  and workers killed at an injected crash site leave state that
  ``repro doctor`` reports clean once the queue's requeue machinery runs.

Tests that spawn real worker subprocesses also carry the ``sched`` marker
(auto-skipped on single-CPU hosts unless ``REPRO_FORCE_SCHED`` is set).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.exec import build_execution_plan, execute_plan
from repro.experiments import ExperimentSpec
from repro.faults import (
    FAULT_SITES,
    FaultPlan,
    InjectedFault,
    fault_point,
    faults_active,
    injected_faults,
    install_faults,
    maybe_corrupt,
    parse_faults,
)
from repro.ioutil import atomic_write_json, read_json, with_io_retries
from repro.obs import snapshot
from repro.store.run_store import RunStore

pytestmark = pytest.mark.chaos

SEED = 314


def _spec(name="rbma", seed=SEED, n_requests=150, n_nodes=8):
    return ExperimentSpec(
        algorithm={"name": name, "b": 3, "alpha": 4.0},
        traffic={"name": "zipf",
                 "params": {"n_nodes": n_nodes, "n_requests": n_requests}},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _matrix(n_requests=150):
    return [
        _spec(name, seed=seed, n_requests=n_requests)
        for seed in (1, 2)
        for name in ("rbma", "bma", "oblivious")
    ]


def _assert_identical(a, b):
    """Bit-identical results, ignoring wall-clock timing and provenance."""
    da, db = a.to_dict(), b.to_dict()
    for d in (da, db):
        d.pop("extra", None)
        d.pop("total_elapsed_seconds", None)
        d.get("series", {}).pop("elapsed_seconds", None)
    assert da == db


# --------------------------------------------------------------------------- #
# REPRO_FAULTS parsing
# --------------------------------------------------------------------------- #


class TestParseFaults:
    def test_rate_call_and_limit_syntax(self):
        [a, b, c] = parse_faults(
            "store.write:osfail@0.25, worker.crash:crash#2, queue.claim:delay@1.0x3"
        )
        assert (a.site, a.mode, a.rate, a.at_call, a.limit) == (
            "store.write", "osfail", 0.25, None, None)
        assert (b.site, b.mode, b.at_call) == ("worker.crash", "crash", 2)
        assert (c.site, c.mode, c.rate, c.limit) == ("queue.claim", "delay", 1.0, 3)

    @pytest.mark.parametrize("bad", [
        "store.write",                 # no mode
        "store.write:osfail",          # no rate/call
        "store.write:osfail@nope",     # unparseable rate
        "store.write:osfail@1.5",      # rate out of range
        "bogus.site:osfail@0.1",       # unknown site
        "store.write:explode@0.1",     # unknown mode
        "store.read:corrupt@0.1",      # corrupt needs a write site
        "worker.crash:crash#0",        # call index < 1
        "store.write:osfail@0.1x0",    # limit < 1
        ",",                           # no rules at all
    ])
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ConfigurationError):
            parse_faults(bad)

    def test_every_registered_site_parses(self):
        for site in FAULT_SITES:
            mode = "corrupt" if "write" in site else "delay"
            [rule] = parse_faults(f"{site}:{mode}@0.5")
            assert rule.site == site


# --------------------------------------------------------------------------- #
# Determinism and the zero-overhead off path
# --------------------------------------------------------------------------- #


def _osfail_trace(seed: int, n: int = 40) -> list:
    """Which of n visits to store.write inject, under osfail@0.3."""
    trace = []
    with injected_faults("store.write:osfail@0.3", seed=seed):
        for _ in range(n):
            try:
                fault_point("store.write")
                trace.append(False)
            except InjectedFault:
                trace.append(True)
    return trace


class TestDeterminism:
    def test_same_seed_same_injections(self):
        first = _osfail_trace(seed=7)
        assert any(first) and not all(first)
        assert _osfail_trace(seed=7) == first

    def test_different_seed_different_injections(self):
        assert _osfail_trace(seed=7) != _osfail_trace(seed=8)

    def test_at_call_fires_exactly_once_at_the_nth_visit(self):
        with injected_faults("store.write:osfail#3"):
            for call in range(1, 7):
                if call == 3:
                    with pytest.raises(InjectedFault):
                        fault_point("store.write")
                else:
                    fault_point("store.write")
            assert snapshot("faults.") == {"faults.store.write": 1}

    def test_limit_caps_total_injections(self):
        with injected_faults("store.write:osfail@1.0x2"):
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    fault_point("store.write")
            for _ in range(10):
                fault_point("store.write")
            assert snapshot("faults.") == {"faults.store.write": 2}

    def test_corrupt_mangles_writes_on_its_own_counter(self):
        with injected_faults("store.write:corrupt@1.0x1"):
            mangled = maybe_corrupt("store.write", '{"ok": true}')
            assert mangled != '{"ok": true}'
            assert maybe_corrupt("store.write", '{"ok": true}') == '{"ok": true}'

    def test_off_by_default_all_hooks_are_noops(self):
        assert not faults_active()
        assert snapshot("faults.") == {}
        fault_point("store.write")  # must not raise
        assert maybe_corrupt("store.write", "text") == "text"

    def test_install_and_clear_round_trip(self):
        plan = install_faults("queue.claim:delay@1.0")
        assert faults_active() and isinstance(plan, FaultPlan)
        from repro.faults import clear_faults

        clear_faults()
        assert not faults_active()

    def test_unrelated_sites_are_untouched(self):
        with injected_faults("store.write:osfail@1.0"):
            fault_point("store.read")
            fault_point("queue.claim")


# --------------------------------------------------------------------------- #
# Bounded retry with backoff
# --------------------------------------------------------------------------- #


class TestIoRetries:
    def test_transient_failures_are_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_IO_RETRIES", "2")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        attempts = []

        def op():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert with_io_retries(op, "store.write") == "ok"
        assert len(attempts) == 3

    def test_budget_exhaustion_raises_the_last_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_IO_RETRIES", "1")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        attempts = []

        def op():
            attempts.append(1)
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            with_io_retries(op, "store.write")
        assert len(attempts) == 2

    def test_file_not_found_is_never_retried(self):
        attempts = []

        def op():
            attempts.append(1)
            raise FileNotFoundError("a miss, not a hiccup")

        with pytest.raises(FileNotFoundError):
            with_io_retries(op, "store.read")
        assert len(attempts) == 1

    def test_atomic_write_survives_injected_transients(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_IO_RETRIES", "2")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        target = tmp_path / "out.json"
        with injected_faults("store.write:osfail@1.0x2"):
            atomic_write_json(target, {"ok": True})
            assert snapshot("faults.") == {"faults.store.write": 2}
        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_corrupted_write_is_detectable_on_read(self, tmp_path):
        # Corruption mangles whatever attempt it hits; the payload lands
        # torn, which is exactly what the read-side quarantine is for.
        target = tmp_path / "out.json"
        with injected_faults("store.write:corrupt@1.0x1"):
            atomic_write_json(target, {"ok": True})
        with pytest.raises(json.JSONDecodeError):
            read_json(target)

    def test_junk_env_values_warn_and_use_defaults(self, monkeypatch):
        from repro.ioutil import io_backoff, io_retries

        monkeypatch.setenv("REPRO_IO_RETRIES", "lots")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_IO_RETRIES"):
            assert io_retries() == 2
        with pytest.warns(RuntimeWarning, match="REPRO_IO_BACKOFF"):
            assert io_backoff() == pytest.approx(0.02)


# --------------------------------------------------------------------------- #
# Store hardening: quarantine, degraded mode, tmp reaping
# --------------------------------------------------------------------------- #


class TestStoreHardening:
    def test_checksum_mismatch_quarantines_as_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        fp = store.put(_spec().execute())
        path = store.entry_path(fp)
        payload = json.loads(path.read_text())
        payload["result"]["total_routing_cost"] = 0.0  # silent bit-flip
        path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert store.get_payload(fp) is None
        assert (tmp_path / "quarantine" / f"{fp}.json").exists()
        assert snapshot("store.")["store.quarantined"] == 1

    def test_legacy_entry_without_checksum_still_reads(self, tmp_path):
        store = RunStore(tmp_path)
        fp = store.put(_spec().execute())
        path = store.entry_path(fp)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert store.get_payload(fp) is not None

    def test_unwritable_store_degrades_to_cold_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_IO_RETRIES", "0")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        store = RunStore(tmp_path)
        result = _spec().execute()
        with injected_faults("store.write:osfail@1.0"):
            with pytest.warns(RuntimeWarning, match="not writable"):
                fp = store.put(result)
            # Degraded, not dead: the put reported the fingerprint, nothing
            # was persisted, and later puts stay silent (warn once).
            assert store.get_payload(fp) is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                store.put(result)
        assert snapshot("store.")["store.write_failures"] >= 1
        # With the faults gone the same store persists again.
        assert store.put(result) == fp
        assert store.get_payload(fp) is not None

    def test_gc_reaps_stale_tmp_files(self, tmp_path):
        import os as _os
        import time as _time

        store = RunStore(tmp_path)
        store.put(_spec().execute())
        shard = next(store.runs_dir.iterdir())
        stale = shard / ".dead.json.tmp-999"
        stale.write_text("{ torn")
        old = _time.time() - 2 * store.TMP_MAX_AGE_SECONDS
        _os.utime(stale, (old, old))
        fresh = shard / ".live.json.tmp-1000"
        fresh.write_text("{ in flight")
        store.gc(dry_run=True)
        assert stale.exists()  # dry_run reports without deleting
        store.gc()
        assert not stale.exists()
        assert fresh.exists()  # a live writer's tmp file survives

    def test_scan_skips_checksum_failing_entries(self, tmp_path):
        store = RunStore(tmp_path)
        fp = store.put(_spec().execute())
        path = store.entry_path(fp)
        payload = json.loads(path.read_text())
        payload["result"]["total_routing_cost"] = -1.0
        path.write_text(json.dumps(payload))
        assert len(RunStore(tmp_path)) == 0  # listings go through _scan


# --------------------------------------------------------------------------- #
# Chaos differentials: fault-free vs injected-transients, bit-identical
# --------------------------------------------------------------------------- #


_TRANSIENT_PLAN = (
    "store.write:osfail@0.15,store.read:osfail@0.15,"
    "queue.task_write:osfail@0.1,queue.heartbeat:osfail@0.2,"
    "queue.result_write:osfail@0.1,queue.claim:delay@0.3"
)


class TestChaosDifferential:
    def test_serial_with_store_is_bit_identical_under_transient_faults(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_IO_RETRIES", "4")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        specs = _matrix()
        baseline = execute_plan(
            build_execution_plan(specs, store=False), backend="serial"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with injected_faults(_TRANSIENT_PLAN, seed=5):
                chaotic = execute_plan(
                    build_execution_plan(specs, store=str(tmp_path / "store")),
                    backend="serial",
                )
                injected = snapshot("faults.")
        assert sum(injected.values()) > 0, "chaos run injected nothing"
        assert len(chaotic) == len(baseline)
        for clean, dirty in zip(baseline, chaotic):
            _assert_identical(clean, dirty)

    def test_warm_reads_under_faults_stay_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_IO_RETRIES", "4")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
        specs = _matrix()
        store_path = str(tmp_path / "store")
        cold = execute_plan(
            build_execution_plan(specs, store=store_path), backend="serial"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with injected_faults("store.read:osfail@0.25", seed=11):
                warm = execute_plan(
                    build_execution_plan(specs, store=store_path), backend="serial"
                )
                injected = snapshot("faults.")
        assert injected.get("faults.store.read", 0) > 0
        for a, b in zip(cold, warm):
            _assert_identical(a, b)

    @pytest.mark.sched
    def test_queue_backend_is_bit_identical_under_env_injected_faults(
        self, tmp_path, monkeypatch
    ):
        """Workers inherit REPRO_FAULTS from the environment; the sweep's
        results must still match fault-free serial execution exactly."""
        specs = _matrix(n_requests=400)
        baseline = execute_plan(
            build_execution_plan(specs, store=False), backend="serial"
        )
        monkeypatch.setenv("REPRO_FAULTS", _TRANSIENT_PLAN)
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        monkeypatch.setenv("REPRO_IO_RETRIES", "4")
        monkeypatch.setenv("REPRO_IO_BACKOFF", "0.001")
        # This test process imported repro.faults long before the env was
        # set, so the parent stays fault-free; only workers see the plan.
        assert not faults_active()
        chaotic = execute_plan(
            build_execution_plan(specs, store=False),
            backend="queue",
            n_workers=2,
            queue_dir=str(tmp_path / "queue"),
            lease_seconds=5.0,
            poll_interval=0.05,
            timeout=300.0,
        )
        for clean, dirty in zip(baseline, chaotic):
            _assert_identical(clean, dirty)


# --------------------------------------------------------------------------- #
# Worker crash chaos: injected SIGKILL, requeue, doctor-clean state
# --------------------------------------------------------------------------- #


@pytest.mark.sched
def test_injected_worker_crashes_requeue_and_leave_doctor_clean_state(
    tmp_path, monkeypatch
):
    """Every worker subprocess is SIGKILLed at an injected ``worker.crash``
    site (the second checkpoint, i.e. just before publishing its first
    result).  The queue's lease/requeue machinery must finish the sweep
    bit-identically anyway, and ``repro doctor`` must report the leftover
    queue directory clean."""
    from repro.cli import main
    from repro.doctor import audit_queue
    from repro.exec.queue import WorkQueue

    specs = _matrix(n_requests=400)
    baseline = execute_plan(
        build_execution_plan(specs, store=False), backend="serial"
    )
    monkeypatch.setenv("REPRO_FAULTS", "worker.crash:crash#2")
    assert not faults_active()  # the parent never installs the crash plan
    queue_dir = tmp_path / "queue"
    results = execute_plan(
        build_execution_plan(specs, store=False),
        backend="queue",
        n_workers=2,
        queue_dir=str(queue_dir),
        lease_seconds=5.0,
        poll_interval=0.05,
        timeout=300.0,
    )
    for clean, dirty in zip(baseline, results):
        _assert_identical(clean, dirty)
    # The crashed attempts really happened: some task took >= 2 attempts.
    assert max(r.extra["attempts"] for r in results) >= 2

    monkeypatch.delenv("REPRO_FAULTS")
    report = audit_queue(WorkQueue.open(queue_dir))
    assert report.clean(), [f.to_dict() for f in report.findings]
    assert main(["doctor", "--queue", str(queue_dir)]) == 0
