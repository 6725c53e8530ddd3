"""Figure 9 — serving daemon: cold per-request compile vs a warm session.

``test_served_warm_beats_cold_compile`` carries the CI ``bench`` job's
serving floor: on the two compile-dominated one-trial suite models, a
request to a daemon (``python -m repro.serve``) whose session already holds
the compiled model must beat paying a fresh ``compile_composition`` per
request by >= 5x at p50.  The cold side is measured in-process, without
interpreter start-up, which only flatters it.

Served latency under concurrent load, with its per-layer breakdown, is
measured by perfbench's ``serve_mixed`` workload (``python3 perfbench/run.py
--workload serve_mixed``); coalescing and warm artifact-store reuse across
daemon restarts are pinned by ``tests/test_serve.py``.
"""

import statistics
import time

from repro.core.distill import compile_composition
from repro.models import get_model
from repro.serve import ServeClient, ServeConfig, Server, wait_for_server

#: The acceptance bar: a warm daemon request must beat paying a fresh
#: compile per request by at least this factor at p50.
SERVED_WARM_FLOOR = 5.0
FLOOR_MODELS = ("necker_cube_s", "botvinick_stroop")
COLD_REPEATS = 3
WARM_REQUESTS = 12

MODEL = "necker_cube_s"


def _daemon(tmp_path, **config_kwargs):
    server = Server(
        str(tmp_path / "bench.sock"),
        artifact_dir=str(tmp_path / "artifacts"),
        config=ServeConfig(coalesce_window=0.002, **config_kwargs),
    )
    server.start()
    wait_for_server(server.address)
    return server


def _seconds(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def bench_served_warm_request(benchmark, tmp_path):
    """One warm round trip: socket framing + queue + cached-engine dispatch."""
    inputs = get_model(MODEL).inputs()
    with _daemon(tmp_path) as server:
        with ServeClient(server.address, timeout=600.0) as client:
            client.run(MODEL, inputs, num_trials=1, seed=0)  # warm the session
            benchmark(lambda: client.run(MODEL, inputs, num_trials=1, seed=0))


def _cold_request(entry, inputs, seed):
    compiled = compile_composition(entry.build(), pipeline="default<O2>", store=False)
    try:
        compiled.run(inputs, num_trials=1, seed=seed, engine="compiled")
    finally:
        compiled.close_engines()


def test_served_warm_beats_cold_compile(tmp_path):
    with _daemon(tmp_path) as server:
        with ServeClient(server.address, timeout=600.0) as client:
            for name in FLOOR_MODELS:
                entry = get_model(name)
                inputs = entry.inputs()
                cold_p50 = statistics.median(
                    _seconds(lambda: _cold_request(entry, inputs, seed))
                    for seed in range(COLD_REPEATS)
                )
                client.run(name, inputs, num_trials=1, seed=0)  # warm the session
                warm_p50 = statistics.median(
                    _seconds(lambda: client.run(name, inputs, num_trials=1, seed=seed))
                    for seed in range(WARM_REQUESTS)
                )
                assert cold_p50 >= SERVED_WARM_FLOOR * warm_p50, (
                    f"{name}: served-warm p50 {warm_p50 * 1e3:.2f} ms beat the cold "
                    f"compile p50 {cold_p50 * 1e3:.2f} ms by only "
                    f"{cold_p50 / warm_p50:.2f}x"
                )
