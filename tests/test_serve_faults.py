"""Fault injection for the serving daemon: dead workers, SIGTERM, bad bytes.

Worker-kill determinism: the ``worker_killer`` fixture (conftest.py) patches
``repro.backends.multicore._worker_evaluate`` before the mcpu pool first
forks, so every worker carries the patched task function; the first worker
to find the sentinel file unlinks it and SIGKILLs itself.  The engine's
worker pool notices the dead worker, drops the broken pool and raises
``WorkerLost``; the daemon retries the dispatch once, and the retry's fresh
pool runs clean.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from helpers import build_deterministic_cascade
from repro.errors import ServeError, ServerUnavailable
from repro.models import get_model
from repro.serve import ServeClient, wait_for_server

from test_serve import assert_results_bitwise, make_server, solo_results

GRID_MODEL = "predator_prey_s"  # grid searches run on the mcpu worker pool


class TestWorkerDeath:
    def test_killed_worker_retries_and_recovers(self, tmp_path, worker_killer):
        from repro.backends import multicore

        sentinel = worker_killer(multicore, "_worker_evaluate")
        entry = get_model(GRID_MODEL)
        inputs = entry.inputs()
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            with ServeClient(server.address, timeout=300.0) as client:
                # Arm the sentinel: the first chunk of the next mcpu dispatch
                # SIGKILLs its worker.
                open(sentinel, "w").close()
                served = client.run(
                    GRID_MODEL, inputs, num_trials=1, seed=3, target="mcpu"
                )
                stats = client.stats()
        assert not os.path.exists(sentinel)  # the kill really fired
        assert stats["requests"]["retries"] == 1
        assert stats["requests"]["completed"] == 1
        assert stats["requests"]["failed"] == 0
        assert_results_bitwise(
            served, solo_results(entry.build, inputs, 1, 3, target="mcpu")
        )

    def test_second_failure_surfaces_structured_engine_error(self, tmp_path):
        """When the retry also fails, clients get engine_error, not a hang."""
        with make_server(tmp_path) as server:
            wait_for_server(server.address)
            # Both the dispatch and its retry hit the (injected) dead pool.
            server.session.compile = lambda *a, **k: (_ for _ in ()).throw(
                OSError("broken pool pipe")
            )
            with ServeClient(server.address, timeout=60.0) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.run(
                        "det_cascade", [[0.4, -0.7], [1.2, 0.3]], num_trials=1
                    )
                assert excinfo.value.code == "engine_error"
                assert "retry" in str(excinfo.value)
                stats = client.stats()
        assert stats["requests"]["retries"] == 1
        assert stats["requests"]["failed"] == 1


class TestSigtermDrain:
    def test_sigterm_mid_load_drains_inflight_and_rejects_new(self, tmp_path):
        """A real daemon process: SIGTERM while a request is in flight."""
        sock = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--socket",
                sock,
                "--artifact-dir",
                "off",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            wait_for_server(sock, timeout=60.0)
            entry = get_model("necker_cube_s")
            inputs = entry.inputs()

            # Compile outside the critical window so the in-flight request
            # below is pure (multi-second) execution.
            with ServeClient(sock, timeout=300.0) as warm:
                warm.compile("necker_cube_s")

            inflight = {}

            def long_run():
                try:
                    with ServeClient(sock, timeout=300.0) as client:
                        inflight["results"] = client.run(
                            "necker_cube_s", inputs, num_trials=64, seed=5
                        )
                except ServeError as exc:  # surfaced in the main thread
                    inflight["error"] = exc

            # Connect the bystander BEFORE the drain: after SIGTERM the
            # listener closes, but established connections keep answering.
            bystander = ServeClient(sock, timeout=60.0)
            runner = threading.Thread(target=long_run)
            runner.start()
            # SIGTERM only once the long run is admitted (the warm compile
            # was admission #1): this is what makes it *in-flight* load.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if bystander.stats()["requests"]["admitted"] >= 2:
                    break
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)

            deadline = time.monotonic() + 60.0
            draining = False
            while time.monotonic() < deadline:
                try:
                    if bystander.stats()["draining"]:
                        draining = True
                        break
                except ServeError:
                    break
                time.sleep(0.01)

            rejected = False
            if draining:
                try:
                    bystander.run("necker_cube_s", inputs, num_trials=1)
                except ServerUnavailable:
                    rejected = True
            bystander.close()

            runner.join(timeout=300.0)
            assert not runner.is_alive(), "in-flight request never finished"
            assert proc.wait(timeout=120.0) == 0
            # The in-flight request drained to a full, correct result.
            assert "error" not in inflight, f"in-flight failed: {inflight.get('error')}"
            assert len(inflight["results"].trials) == 64
            assert_results_bitwise(
                inflight["results"], solo_results(entry.build, inputs, 64, 5)
            )
            # If we caught the draining window, the new request was rejected
            # with the structured shutting_down error (on a fast box the
            # daemon may finish draining first — then the socket is gone,
            # which the client also surfaces as ServerUnavailable).
            if draining:
                assert rejected
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)


class TestCorruptArtifacts:
    def test_corrupted_store_entry_is_miss_plus_unlink(self, tmp_path):
        store_dir = tmp_path / "store"
        with make_server(tmp_path, artifact_dir=str(store_dir)) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                first = client.compile("det_cascade")
        assert first["artifacts"]["writes"] > 0

        # Corrupt every published object.
        objects_dir = store_dir / "objects"
        corrupted = []
        for shard in objects_dir.iterdir():
            for path in shard.iterdir():
                path.write_bytes(b"\x80\x05 truncated garbage")
                corrupted.append(path)
        assert corrupted

        second_root = tmp_path / "second"
        second_root.mkdir()
        with make_server(second_root, artifact_dir=str(store_dir)) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                second = client.compile("det_cascade")
                stats = client.stats()
        # Corrupt entries read as misses (never a crash, never stale bytes),
        # the store unlinks them, and the compile repopulates the store.
        assert second["artifacts"]["hits"] == 0
        assert stats["artifacts"]["errors"] >= 1
        assert stats["artifacts"]["misses"] >= 1
        assert all(
            not path.exists() or path.read_bytes() != b"\x80\x05 truncated garbage"
            for path in corrupted
        )

    def test_daemon_with_store_still_bitwise(self, tmp_path):
        """The artifact-store fast path must not change served results."""
        inputs = [[0.4, -0.7], [1.2, 0.3]]
        with make_server(tmp_path, artifact_dir=str(tmp_path / "store")) as server:
            wait_for_server(server.address)
            with ServeClient(server.address) as client:
                served = client.run("det_cascade", inputs, num_trials=3, seed=12)
        assert_results_bitwise(
            served, solo_results(build_deterministic_cascade, inputs, 3, 12)
        )
