"""Concurrency suite for the serving daemon (:mod:`repro.serve`).

The heart of the suite is the bitwise contract: whatever the daemon does —
coalesce requests into shared dispatches, split batches, interleave clients —
each client's results must equal the same solo in-process ``Session.run``
exactly.  The dispatcher is made deterministic where the tests need it by
gating ``Server._dispatch`` behind an event (requests pile up in the
admission queue while the gate is closed), so the queue-full, deadline and
coalescing paths are exercised without timing races.

Every client call carries a timeout and every worker thread is joined with
one: a hang is a failure, never a stuck CI job.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from helpers import build_deterministic_cascade
from repro.driver.session import Session
from repro.errors import (
    DeadlineExceeded,
    ServeError,
    ServerBusy,
    ServerUnavailable,
)
from repro.models import get_model
from repro.serve import ServeClient, ServeConfig, Server, wait_for_server
from repro.serve.server import MAX_NUM_TRIALS

JOIN_TIMEOUT = 120.0

MODEL = "necker_cube_s"
CUSTOM = "det_cascade"
CUSTOM_INPUTS = [[0.4, -0.7], [1.2, 0.3]]


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def make_server(tmp_path, **kwargs):
    """An in-process daemon on a unix socket under ``tmp_path``."""
    kwargs.setdefault("artifact_dir", False)
    kwargs.setdefault("models", {CUSTOM: build_deterministic_cascade})
    server = Server(str(tmp_path / "serve.sock"), **kwargs)
    server.start()
    return server


class DispatchGate:
    """Holds the dispatcher's first ``gated`` dispatches until released.

    While the gate is closed, admitted requests sit in the bounded queue —
    which is exactly the state the coalescing/deadline/queue-full tests
    need to set up deterministically.
    """

    def __init__(self, server: Server, gated: int = 1):
        self._release = threading.Event()
        self._entered = threading.Semaphore(0)
        self._remaining = gated
        self._lock = threading.Lock()
        original = server._dispatch

        def wrapper(batch):
            with self._lock:
                gate_this = self._remaining > 0
                if gate_this:
                    self._remaining -= 1
            if gate_this:
                self._entered.release()
                assert self._release.wait(timeout=JOIN_TIMEOUT), "gate never released"
            original(batch)

        server._dispatch = wrapper

    def wait_entered(self) -> None:
        assert self._entered.acquire(timeout=JOIN_TIMEOUT), "dispatcher never arrived"

    def release(self) -> None:
        self._release.set()


def solo_results(build, inputs, num_trials, seed, target="compiled"):
    with Session(store=False) as session:
        return session.compile(build(), target=target).run(
            inputs, num_trials=num_trials, seed=seed
        )


def assert_results_bitwise(served, solo):
    assert served.model_name == solo.model_name
    assert len(served.trials) == len(solo.trials)
    for served_trial, solo_trial in zip(served.trials, solo.trials):
        assert served_trial.passes == solo_trial.passes
        assert set(served_trial.outputs) == set(solo_trial.outputs)
        for name, value in solo_trial.outputs.items():
            assert np.array_equal(served_trial.outputs[name], value), name
        assert set(served_trial.monitored) == set(solo_trial.monitored)
        for name, steps in solo_trial.monitored.items():
            served_steps = served_trial.monitored[name]
            assert len(served_steps) == len(steps), name
            for served_step, step in zip(served_steps, steps):
                assert np.array_equal(served_step, step), name


def run_in_threads(workers):
    """Run the callables in parallel threads; re-raise the first failure."""
    errors = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive(), "worker thread hung"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Bitwise contracts
# ---------------------------------------------------------------------------


class TestBitwise:
    def test_single_run_bitwise_vs_solo(self, tmp_path):
        entry = get_model(MODEL)
        inputs = entry.inputs()
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                served = client.run(MODEL, inputs, num_trials=4, seed=7)
        assert_results_bitwise(served, solo_results(entry.build, inputs, 4, 7))

    def test_threaded_clients_bitwise(self, tmp_path):
        """Eight clients with distinct seeds/trials, one warm daemon."""
        entry = get_model(MODEL)
        inputs = entry.inputs()
        plans = [(2 + i % 3, 100 + i) for i in range(8)]
        served = [None] * len(plans)
        with make_server(tmp_path) as server:
            wait_for_server(server.address)

            def worker(index, trials, seed):
                with ServeClient(server.address) as client:
                    served[index] = client.run(
                        MODEL, inputs, num_trials=trials, seed=seed
                    )

            run_in_threads(
                [
                    (lambda i=i, t=t, s=s: worker(i, t, s))
                    for i, (t, s) in enumerate(plans)
                ]
            )
        for (trials, seed), result in zip(plans, served):
            assert_results_bitwise(
                result, solo_results(entry.build, inputs, trials, seed)
            )

    def test_coalesced_requests_split_bitwise(self, tmp_path):
        """Same-key requests with interleaved seeds coalesce into one
        dispatch and split back bitwise-identical to solo runs."""
        seeds = [11, 5, 11, 3, 8]
        trials = [3, 1, 2, 4, 2]
        served = [None] * len(seeds)
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as warm:
                warm.compile(CUSTOM)
                gate = DispatchGate(server)
                # The gated request occupies the dispatcher...
                blocker = threading.Thread(
                    target=lambda: ServeClient(server.address).run(
                        CUSTOM, CUSTOM_INPUTS, num_trials=1, seed=0
                    )
                )
                blocker.start()
                gate.wait_entered()

                # ...while the same-key pile builds up in the queue.
                def worker(index):
                    with ServeClient(server.address) as client:
                        served[index] = client.run(
                            CUSTOM,
                            CUSTOM_INPUTS,
                            num_trials=trials[index],
                            seed=seeds[index],
                        )

                workers = [
                    (lambda i=i: worker(i)) for i in range(len(seeds))
                ]
                pile = threading.Thread(target=lambda: run_in_threads(workers))
                pile.start()
                deadline = time.monotonic() + JOIN_TIMEOUT
                while time.monotonic() < deadline:
                    with server._lock:
                        if len(server._queue) >= len(seeds):
                            break
                    time.sleep(0.01)
                gate.release()
                pile.join(timeout=JOIN_TIMEOUT)
                assert not pile.is_alive()
                blocker.join(timeout=JOIN_TIMEOUT)
                assert not blocker.is_alive()

                stats = warm.stats()
        assert all(result.coalesced == len(seeds) for result in served)
        assert stats["coalesce"]["coalesced_requests"] >= len(seeds)
        assert stats["coalesce"]["max_batch"] >= len(seeds)
        assert stats["coalesce"]["rate"] > 0
        for index, result in enumerate(served):
            assert_results_bitwise(
                result,
                solo_results(
                    build_deterministic_cascade,
                    CUSTOM_INPUTS,
                    trials[index],
                    seeds[index],
                ),
            )

    @pytest.mark.parametrize("target", ["compiled", "lane", "mcpu"])
    def test_coalesced_batch_bitwise_across_targets(self, tmp_path, target):
        """The coalesced dispatch is bitwise on every engine family."""
        entry = get_model(MODEL)
        inputs = entry.inputs()
        plans = [(2, 21), (1, 22), (3, 21)]
        served = [None] * len(plans)
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as warm:
                warm.compile(MODEL, target=target)
                gate = DispatchGate(server)
                blocker = threading.Thread(
                    target=lambda: ServeClient(server.address).run(
                        CUSTOM, CUSTOM_INPUTS, num_trials=1, seed=0
                    )
                )
                blocker.start()
                gate.wait_entered()

                def worker(index, trials, seed):
                    with ServeClient(server.address) as client:
                        served[index] = client.run(
                            MODEL, inputs, num_trials=trials, seed=seed, target=target
                        )

                workers = [
                    (lambda i=i, t=t, s=s: worker(i, t, s))
                    for i, (t, s) in enumerate(plans)
                ]
                pile = threading.Thread(target=lambda: run_in_threads(workers))
                pile.start()
                deadline = time.monotonic() + JOIN_TIMEOUT
                while time.monotonic() < deadline:
                    with server._lock:
                        if len(server._queue) >= len(plans):
                            break
                    time.sleep(0.01)
                gate.release()
                pile.join(timeout=JOIN_TIMEOUT)
                assert not pile.is_alive()
                blocker.join(timeout=JOIN_TIMEOUT)
                assert not blocker.is_alive()
        assert all(result.coalesced == len(plans) for result in served)
        for (trials, seed), result in zip(plans, served):
            assert_results_bitwise(
                result, solo_results(entry.build, inputs, trials, seed, target=target)
            )

    def test_run_batch_roundtrip_per_element(self, tmp_path):
        entry = get_model(MODEL)
        inputs = entry.inputs()
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                results = client.run_batch(
                    MODEL, [inputs, inputs, inputs], num_trials=[1, 3, 2], seed=[4, 5, 6]
                )
        assert [len(r.trials) for r in results] == [1, 3, 2]
        for result, (trials, seed) in zip(results, [(1, 4), (3, 5), (2, 6)]):
            assert_results_bitwise(
                result, solo_results(entry.build, inputs, trials, seed)
            )


# ---------------------------------------------------------------------------
# Admission: backpressure, deadlines, draining
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_returns_server_busy(self, tmp_path):
        config = ServeConfig(max_queue=2)
        with make_server(tmp_path, config=config) as server:
            wait_for_server(server.address)
            gate = DispatchGate(server)
            blocker = threading.Thread(
                target=lambda: ServeClient(server.address).run(
                    CUSTOM, CUSTOM_INPUTS, num_trials=1
                )
            )
            blocker.start()
            gate.wait_entered()

            def fill():
                with ServeClient(server.address) as client:
                    client.run(CUSTOM, CUSTOM_INPUTS, num_trials=1, seed=1)

            filler_threads = [threading.Thread(target=fill) for _ in range(2)]
            for thread in filler_threads:
                thread.start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while time.monotonic() < deadline:
                with server._lock:
                    if len(server._queue) >= 2:
                        break
                time.sleep(0.01)

            with ServeClient(server.address) as client:
                with pytest.raises(ServerBusy) as excinfo:
                    client.run(CUSTOM, CUSTOM_INPUTS, num_trials=1, seed=2)
            assert excinfo.value.code == "server_busy"

            gate.release()
            for thread in filler_threads:
                thread.join(timeout=JOIN_TIMEOUT)
                assert not thread.is_alive()
            blocker.join(timeout=JOIN_TIMEOUT)
            assert not blocker.is_alive()
            with ServeClient(server.address) as client:
                assert client.stats()["requests"]["rejected_busy"] == 1

    def test_deadline_expires_in_queue(self, tmp_path):
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            gate = DispatchGate(server)
            blocker = threading.Thread(
                target=lambda: ServeClient(server.address).run(
                    CUSTOM, CUSTOM_INPUTS, num_trials=1
                )
            )
            blocker.start()
            gate.wait_entered()

            failure = []

            def doomed():
                with ServeClient(server.address) as client:
                    try:
                        client.run(
                            CUSTOM, CUSTOM_INPUTS, num_trials=1, seed=9, deadline_ms=30
                        )
                    except DeadlineExceeded as exc:
                        failure.append(exc)

            doomed_thread = threading.Thread(target=doomed)
            doomed_thread.start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while time.monotonic() < deadline:
                with server._lock:
                    if len(server._queue) >= 1:
                        break
                time.sleep(0.01)
            time.sleep(0.05)  # let the 30ms deadline lapse while queued
            gate.release()
            doomed_thread.join(timeout=JOIN_TIMEOUT)
            assert not doomed_thread.is_alive()
            blocker.join(timeout=JOIN_TIMEOUT)
            assert not blocker.is_alive()
            assert failure and failure[0].code == "deadline_exceeded"
            with ServeClient(server.address) as client:
                assert client.stats()["requests"]["rejected_deadline"] == 1

    def test_drain_completes_queued_rejects_new(self, tmp_path):
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            # Admitted-before-drain request, held in the queue by the gate.
            gate = DispatchGate(server)
            survivor = {}

            def queued_run():
                with ServeClient(server.address) as client:
                    survivor["results"] = client.run(
                        CUSTOM, CUSTOM_INPUTS, num_trials=2, seed=1
                    )

            blocker = threading.Thread(
                target=lambda: ServeClient(server.address).run(
                    CUSTOM, CUSTOM_INPUTS, num_trials=1
                )
            )
            blocker.start()
            gate.wait_entered()
            queued_thread = threading.Thread(target=queued_run)
            queued_thread.start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while time.monotonic() < deadline:
                with server._lock:
                    if len(server._queue) >= 1:
                        break
                time.sleep(0.01)

            # A client connected before the drain: its new request must be
            # rejected with the structured shutting_down error.
            bystander = ServeClient(server.address)
            server.request_shutdown()
            with pytest.raises(ServerUnavailable):
                bystander.run(CUSTOM, CUSTOM_INPUTS, num_trials=1, seed=2)
            bystander.close()

            gate.release()
            queued_thread.join(timeout=JOIN_TIMEOUT)
            assert not queued_thread.is_alive()
            blocker.join(timeout=JOIN_TIMEOUT)
            assert not blocker.is_alive()
        # The queued request drained to a real (bitwise-correct) result.
        assert_results_bitwise(
            survivor["results"],
            solo_results(build_deterministic_cascade, CUSTOM_INPUTS, 2, 1),
        )


# ---------------------------------------------------------------------------
# Errors, stats and the warm artifact store
# ---------------------------------------------------------------------------


class TestErrorsAndStats:
    def test_unknown_model_and_bad_inputs_are_bad_request(self, tmp_path):
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                with pytest.raises(ServeError) as unknown:
                    client.run("no_such_model", [[0.0]])
                assert unknown.value.code == "bad_request"
                # Wrong input width bounces at admission (it must never
                # poison a coalesced dispatch with other clients' work).
                with pytest.raises(ServeError) as bad_inputs:
                    client.run(CUSTOM, [[1.0, 2.0, 3.0]])
                assert bad_inputs.value.code == "bad_request"
                with pytest.raises(ServeError) as bad_target:
                    client.run(CUSTOM, CUSTOM_INPUTS, target="no-such-engine")
                assert bad_target.value.code == "bad_request"
                # Unknown compile flags bounce too: each spelling would
                # otherwise grow the model cache under a new key.
                for flags in ({"structured_codegen": False}, {"bogus": [1]}):
                    with pytest.raises(ServeError) as bad_flags:
                        client.run(CUSTOM, CUSTOM_INPUTS, flags=flags)
                    assert bad_flags.value.code == "bad_request"
                    assert "unknown compile flag" in str(bad_flags.value)
                # The daemon is still healthy afterwards.
                assert client.ping()
                assert client.stats()["session"]["models"] == 0

    def test_worker_count_outside_cpu_range_is_bad_request(self, tmp_path):
        """``options.workers`` sizes a process pool: a client must not be
        able to make the daemon fork more workers than there are CPUs."""
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                for workers in (os.cpu_count() + 1, 0, "2", True):
                    with pytest.raises(ServeError) as excinfo:
                        client.run(CUSTOM, CUSTOM_INPUTS, workers=workers)
                    assert excinfo.value.code == "bad_request", workers
                    assert "workers" in str(excinfo.value)
                assert client.stats()["session"]["models"] == 0
                served = client.run(CUSTOM, CUSTOM_INPUTS, workers=1)
        assert_results_bitwise(
            served, solo_results(build_deterministic_cascade, CUSTOM_INPUTS, None, 0)
        )

    def test_num_trials_outside_admitted_range_is_bad_request(self, tmp_path):
        """``num_trials`` sizes every element's result buffers: a client
        must not be able to make one coalesced dispatch allocate without
        bound, and a bad element must bounce before it joins a batch."""
        bad = (MAX_NUM_TRIALS + 1, 0, -3, 2.0, "2", True)
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                for trials in bad:
                    with pytest.raises(ServeError) as excinfo:
                        client.run(CUSTOM, CUSTOM_INPUTS, num_trials=trials)
                    assert excinfo.value.code == "bad_request", trials
                    assert "num_trials" in str(excinfo.value)
                    with pytest.raises(ServeError) as excinfo:
                        client.run_batch(
                            CUSTOM, [CUSTOM_INPUTS] * 2, num_trials=[1, trials]
                        )
                    assert excinfo.value.code == "bad_request", trials
                assert client.stats()["session"]["models"] == 0
                served = client.run(CUSTOM, CUSTOM_INPUTS, num_trials=3, seed=5)
        assert_results_bitwise(
            served, solo_results(build_deterministic_cascade, CUSTOM_INPUTS, 3, 5)
        )

    def test_seeds_and_deadlines_of_the_wrong_type_are_bad_request(self, tmp_path):
        """A seed is an int and a deadline a finite number.  ``int()`` used
        to run seed 1.5 as 1, ``true`` as 1 and ``"7"`` as 7, and a NaN
        deadline never expired."""

        def assert_bad_request(field, call, *args, **kwargs):
            with pytest.raises(ServeError) as excinfo:
                call(*args, **kwargs)
            assert excinfo.value.code == "bad_request", (field, kwargs)
            assert field in str(excinfo.value)

        inf = float("inf")
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                for seed in (1.5, True, "7", None):
                    assert_bad_request("seed", client.run, CUSTOM, CUSTOM_INPUTS, seed=seed)
                    assert_bad_request(
                        "seed", client.run_batch, CUSTOM, [CUSTOM_INPUTS] * 2, seed=[0, seed]
                    )
                for seed in (2.9, True, "7"):
                    assert_bad_request(
                        "compile_seed", client.run, CUSTOM, CUSTOM_INPUTS, compile_seed=seed
                    )
                    assert_bad_request("compile_seed", client.compile, CUSTOM, compile_seed=seed)
                for deadline in (float("nan"), inf, -inf, 10**400, True, "5"):
                    assert_bad_request(
                        "deadline_ms", client.run, CUSTOM, CUSTOM_INPUTS, deadline_ms=deadline
                    )
                assert client.stats()["session"]["models"] == 0
                served = client.run(
                    CUSTOM, CUSTOM_INPUTS, num_trials=2, seed=5, deadline_ms=60_000
                )
        assert_results_bitwise(
            served, solo_results(build_deterministic_cascade, CUSTOM_INPUTS, 2, 5)
        )

    def test_warm_requests_hit_the_session_on_the_cached_digest(self, tmp_path, monkeypatch):
        """Repeated requests for one model compile it once, and a warm hit
        never re-fingerprints the composition."""
        import repro.driver.session as session_module

        calls = []
        fingerprint = session_module.structural_fingerprint

        def counting(composition):
            calls.append(composition.name)
            return fingerprint(composition)

        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                client.run(CUSTOM, CUSTOM_INPUTS, seed=0)
                monkeypatch.setattr(session_module, "structural_fingerprint", counting)
                for seed in range(1, 4):
                    client.run(CUSTOM, CUSTOM_INPUTS, seed=seed)
                    client.compile(CUSTOM)
                stats = client.stats()
        assert stats["session"]["misses"] == 1
        assert stats["session"]["hits"] == 6
        assert calls == []

    def test_stats_schema(self, tmp_path):
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                client.run(CUSTOM, CUSTOM_INPUTS, num_trials=2)
                stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["requests"]["admitted"] == 1
        assert stats["requests"]["completed"] == 1
        assert {"dispatches", "coalesced_requests", "rate", "max_batch"} <= set(
            stats["coalesce"]
        )
        assert stats["session"]["misses"] == 1
        assert stats["latency_ms"]["count"] == 1
        assert stats["latency_ms"]["p50_ms"] > 0
        assert stats["latency_ms"]["p99_ms"] >= stats["latency_ms"]["p50_ms"]
        assert stats["artifacts"] is None  # store disabled in this harness

    def test_warm_artifact_store_across_daemon_restarts(self, tmp_path):
        store_dir = tmp_path / "store"
        with make_server(tmp_path, artifact_dir=str(store_dir)) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                first = client.compile(CUSTOM)
        assert first["artifacts"]["writes"] > 0

        # A fresh daemon over the same store compiles from artifacts.
        second_root = tmp_path / "second"
        second_root.mkdir()
        with make_server(second_root, artifact_dir=str(store_dir)) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                second = client.compile(CUSTOM)
                stats = client.stats()
        assert second["artifacts"]["hits"] > 0
        assert stats["artifacts"]["hits"] > 0

    def test_client_coalesced_attribute_solo_is_one(self, tmp_path):
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                result = client.run(CUSTOM, CUSTOM_INPUTS, num_trials=1)
        assert result.coalesced == 1
