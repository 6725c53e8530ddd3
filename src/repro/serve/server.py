"""The serving daemon: a coalescing request front-end over a warm Session.

One long-lived process owns a :class:`repro.Session` (compiled-model cache),
an optional :class:`~repro.driver.artifacts.ArtifactStore` and the persistent
engine bindings (worker pools, lane programs).  Clients connect over a local
socket (AF_UNIX path or TCP host/port) and submit run/run_batch/compile
requests; the daemon amortises compilation and pool spin-up across all of
them.

Admission is a bounded queue: when ``max_queue`` requests are already
waiting, new work is rejected immediately with a structured ``server_busy``
error (backpressure — clients retry or shed load; nothing silently queues
without bound).  Each request may carry a deadline; requests that expire
while queued are answered with ``deadline_exceeded`` instead of running
stale.

A single dispatcher thread drains the queue.  When several queued requests
target the same *coalesce key* — structural model fingerprint x pipeline x
compile seed x flags x engine target x run options — they are folded into
ONE engine ``run_batch`` dispatch and the per-element results are split back
per request.  ``run_batch`` is documented bitwise-identical to looping
``run``, so coalesced clients observe exactly the results solo execution
would have produced (the concurrency suite asserts this bitwise).

The dispatcher calls the engine inline; there is no dispatch timeout.  A
worker process killed mid-request surfaces as
:class:`~repro.errors.WorkerLost` from the engine's worker pool, which has
already dropped the broken pool.  Such transient failures are retried once
before a structured ``engine_error`` is surfaced.  Admission rejects a
``workers`` run option outside ``1..os.cpu_count()`` and a ``num_trials``
outside ``1..MAX_NUM_TRIALS``, so clients cannot size the daemon's worker
pools or its per-dispatch buffers; a seed or ``compile_seed`` that is not an
integer and a ``deadline_ms`` that is not a finite number bounce too, rather
than being truncated or never expiring.  SIGTERM/SIGINT flip the daemon into
draining mode: queued and in-flight work completes, new admissions are
rejected with ``shutting_down``.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..cogframe.runner import normalize_inputs
from ..driver.artifacts import normalize_flags, resolve_store
from ..driver.engines import get_engine
from ..driver.session import Session, structural_fingerprint
from ..errors import CompilationError, EngineError, ModelStructureError, WorkerLost
from . import protocol

__all__ = ["ServeConfig", "Server"]

Address = Union[str, Tuple[str, int]]

#: Ring size for the latency percentiles in ``stats``.
_LATENCY_WINDOW = 4096

#: Engine target and pipeline of a request that names none.
DEFAULT_TARGET = "compiled"
DEFAULT_PIPELINE = "default<O2>"

#: Largest per-element ``num_trials`` admitted: each trial allocates a
#: result and a monitor record in the coalesced dispatch.
MAX_NUM_TRIALS = 10_000


@dataclass
class ServeConfig:
    """Tunables for :class:`Server` admission and coalescing."""

    #: Bounded admission queue: requests beyond this are rejected busy.
    max_queue: int = 64
    #: Most requests folded into one coalesced engine dispatch.
    max_coalesce: int = 32
    #: Seconds the dispatcher lingers after popping a request to let
    #: same-key requests arrive and coalesce.  0 coalesces only work that
    #: is *already* queued (no added latency).
    coalesce_window: float = 0.0
    #: Default per-request deadline in seconds (``None``: no deadline).
    default_deadline: Optional[float] = None


def _admit_trials(trials) -> Optional[int]:
    """One element's ``num_trials``: ``None`` (one trial per input row) or
    an int in ``1..MAX_NUM_TRIALS`` (bools, floats and strings bounce)."""
    if trials is None:
        return None
    if type(trials) is not int or not 1 <= trials <= MAX_NUM_TRIALS:
        raise ValueError(f"'num_trials' must be an integer in 1..{MAX_NUM_TRIALS}")
    return trials


def _admit_seed(value, name: str) -> int:
    """A seed: an int (bools, floats and strings bounce rather than being
    truncated or parsed)."""
    if type(value) is not int:
        raise ValueError(f"'{name}' must be an integer")
    return value


def _admit_deadline(deadline_ms) -> float:
    """A deadline in ms: a finite int or float (a NaN one would never expire).

    JSON decodes a huge integer to an int no float can hold, so an overflow
    bounces like any other non-finite deadline."""
    try:
        if type(deadline_ms) in (int, float) and math.isfinite(deadline_ms):
            return float(deadline_ms)
    except OverflowError:
        pass
    raise ValueError("'deadline_ms' must be a finite number")


class _Connection:
    """A client socket plus the write lock serialising responses onto it."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()

    def send(self, message: Dict[str, object]) -> bool:
        try:
            with self.lock:
                protocol.send_message(self.sock, message)
            return True
        except OSError:
            return False

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _Request:
    """One admitted run/run_batch/compile request waiting for dispatch."""

    __slots__ = (
        "conn",
        "msg_id",
        "op",
        "key",
        "composition",
        "target",
        "pipeline",
        "compile_seed",
        "flags",
        "options",
        "elements",
        "deadline",
        "arrived",
    )

    def __init__(
        self,
        conn: _Connection,
        msg_id,
        op: str,
        key: Tuple,
        composition,
        target: str,
        pipeline: str,
        compile_seed: int,
        flags: Optional[Dict[str, object]],
        options: Dict[str, object],
        elements: List[Tuple[object, Optional[int], int]],
        deadline: Optional[float],
        arrived: float,
    ):
        self.conn = conn
        self.msg_id = msg_id
        self.op = op
        self.key = key
        self.composition = composition
        self.target = target
        self.pipeline = pipeline
        self.compile_seed = compile_seed
        self.flags = flags
        self.options = options
        self.elements = elements
        self.deadline = deadline
        self.arrived = arrived

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


#: Failures worth one retry.  ``WorkerLost`` is a worker process that died
#: mid-task (its pool restarts on the next call); ``OSError`` covers broken
#: pool pipes; ``EOFError`` covers a worker dying while the parent reads its
#: result.
_TRANSIENT = (WorkerLost, OSError, EOFError)


class Server:
    """A serving daemon bound to ``address`` (unix path or ``(host, port)``).

    ``artifact_dir`` selects the artifact store exactly like
    :func:`repro.driver.artifacts.resolve_store`: ``None`` consults
    ``REPRO_ARTIFACT_DIR``, ``False`` or ``"off"`` disables the store, a path
    opens one.
    ``models`` optionally maps extra model names to compositions (or
    zero-argument builders) on top of the registry — tests use it to serve
    custom deterministic models.
    """

    def __init__(
        self,
        address: Address,
        artifact_dir=None,
        config: Optional[ServeConfig] = None,
        models: Optional[Dict[str, object]] = None,
    ):
        self.address = address
        self.config = config or ServeConfig()
        self.store = resolve_store(artifact_dir)
        self.session = Session(store=self.store if self.store is not None else False)
        self._extra_models = dict(models or {})
        self._compositions: Dict[str, Tuple[object, str]] = {}
        self._comp_lock = threading.Lock()

        self._lock = threading.Lock()
        self._queue_cv = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._draining = False
        self._closed = False
        self._counters: Dict[str, int] = {
            "admitted": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "rejected_busy": 0,
            "rejected_deadline": 0,
            "rejected_draining": 0,
            "dropped_responses": 0,
            "dispatches": 0,
            "coalesced_requests": 0,
            "max_batch": 0,
        }
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._started = time.monotonic()

        self._listener: Optional[socket.socket] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set = set()
        self._conns_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and start the listener and dispatcher threads."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        if isinstance(self.address, str):
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self.address)
            except OSError:
                pass
            listener.bind(self.address)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(tuple(self.address))
            # Rebind to the kernel-chosen port so callers may pass port 0.
            self.address = listener.getsockname()[:2]
        listener.listen(64)
        self._listener = listener
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (e.g. from a signal handler)."""
        if self._listener is None:
            self.start()
        self._dispatcher.join()
        self.shutdown()

    def request_shutdown(self) -> None:
        """Flip into draining mode; safe to call from a signal handler.

        New admissions are rejected with ``shutting_down``; queued and
        in-flight requests still complete (the drain contract).  The
        dispatcher exits once the queue is empty, unblocking
        :meth:`serve_forever`.
        """
        with self._queue_cv:
            self._draining = True
            self._queue_cv.notify_all()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon.  ``drain=True`` finishes queued work first."""
        if not drain:
            with self._queue_cv:
                pending = list(self._queue)
                self._queue.clear()
                self._counters["rejected_draining"] += len(pending)
            for request in pending:
                request.conn.send(
                    protocol.error_payload(
                        request.msg_id, "shutting_down", "server is shutting down"
                    )
                )
        self.request_shutdown()
        if self._dispatcher is not None and self._dispatcher is not threading.current_thread():
            self._dispatcher.join(timeout=60.0)
        if self._closed:
            return
        self._closed = True
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        self.session.close()
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    def __enter__(self) -> "Server":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- model resolution --------------------------------------------------------
    def _composition(self, name: str):
        with self._comp_lock:
            cached = self._compositions.get(name)
        if cached is not None:
            return cached
        if name in self._extra_models:
            built = self._extra_models[name]
            composition = built() if callable(built) else built
        else:
            from ..models import get_model

            composition = get_model(name).build()
        entry = (composition, structural_fingerprint(composition))
        with self._comp_lock:
            return self._compositions.setdefault(name, entry)

    # -- connection handling -----------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return
            conn = _Connection(sock)
            with self._conns_lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._client_loop, args=(conn,), name="repro-serve-client", daemon=True
            )
            thread.start()

    def _client_loop(self, conn: _Connection) -> None:
        reader = protocol.MessageReader(conn.sock)
        try:
            while True:
                try:
                    message = reader.read()
                except (ValueError, EOFError):
                    conn.send(
                        protocol.error_payload(None, "bad_request", "malformed message")
                    )
                    break
                if message is None:
                    break
                self._handle_message(conn, message)
        except OSError:
            pass
        finally:
            conn.close()
            with self._conns_lock:
                self._conns.discard(conn)

    def _handle_message(self, conn: _Connection, message: Dict[str, object]) -> None:
        msg_id = message.get("id")
        op = message.get("op")
        if op == "ping":
            conn.send(protocol.ok_payload(msg_id, pong=True))
        elif op == "stats":
            conn.send(protocol.ok_payload(msg_id, stats=self.stats()))
        elif op == "shutdown":
            conn.send(protocol.ok_payload(msg_id, draining=True))
            self.request_shutdown()
        elif op in ("run", "run_batch", "compile"):
            try:
                request = self._build_request(conn, msg_id, op, message)
            except (KeyError, TypeError, ValueError, EngineError) as exc:
                conn.send(protocol.error_payload(msg_id, "bad_request", str(exc)))
                return
            self._admit(request)
        else:
            conn.send(
                protocol.error_payload(msg_id, "bad_request", f"unknown op {op!r}")
            )

    def _build_request(
        self, conn: _Connection, msg_id, op: str, message: Dict[str, object]
    ) -> _Request:
        name = message["model"]
        if not isinstance(name, str):
            raise ValueError("'model' must be a model name string")
        composition, fingerprint = self._composition(name)

        target = message.get("target", DEFAULT_TARGET)
        get_engine(target)  # unknown targets fail admission, not dispatch
        pipeline = message.get("pipeline", DEFAULT_PIPELINE)
        if not isinstance(pipeline, str):
            raise ValueError("'pipeline' must be a pipeline description string")
        compile_seed = _admit_seed(message.get("compile_seed", 0), "compile_seed")
        flags = message.get("flags")
        if flags is not None and not isinstance(flags, dict):
            raise ValueError("'flags' must be an object")
        options = message.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("'options' must be an object")
        # The worker count sizes a process pool: an unchecked client value
        # would make the daemon fork without bound.
        workers = options.get("workers")
        max_workers = os.cpu_count() or 1
        if workers is not None and (
            type(workers) is not int or not 1 <= workers <= max_workers
        ):
            raise ValueError(
                f"'options.workers' must be an integer in 1..{max_workers}"
            )

        elements: List[Tuple[object, Optional[int], int]] = []
        if op == "run":
            inputs = message["inputs"]
            trials = message.get("num_trials")
            seed = _admit_seed(message.get("seed", 0), "seed")
            elements.append((inputs, _admit_trials(trials), seed))
        elif op == "run_batch":
            inputs_batch = message["inputs_batch"]
            if not isinstance(inputs_batch, list) or not inputs_batch:
                raise ValueError("'inputs_batch' must be a non-empty list")
            count = len(inputs_batch)
            trials = message.get("num_trials")
            trials_list = (
                list(trials) if isinstance(trials, list) else [trials] * count
            )
            seed = message.get("seed", 0)
            seeds = list(seed) if isinstance(seed, list) else [seed] * count
            if len(trials_list) != count or len(seeds) != count:
                raise ValueError(
                    "per-element num_trials/seed lists must match the batch size"
                )
            for inputs, element_trials, element_seed in zip(
                inputs_batch, trials_list, seeds
            ):
                elements.append(
                    (
                        inputs,
                        _admit_trials(element_trials),
                        _admit_seed(element_seed, "seed"),
                    )
                )

        # Validate inputs at admission: a malformed element must bounce as
        # this client's bad_request, never poison a coalesced dispatch that
        # carries other clients' work.
        for inputs, _trials, _seed in elements:
            normalize_inputs(composition, inputs)

        arrived = time.monotonic()
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is None:
            deadline = (
                None
                if self.config.default_deadline is None
                else arrived + self.config.default_deadline
            )
        else:
            deadline = arrived + _admit_deadline(deadline_ms) / 1000.0

        # key[1] is the composition's cached digest: dispatch hands it to the
        # session, so a warm lookup never re-fingerprints the model.
        key = (
            "compile" if op == "compile" else "run",
            fingerprint,
            pipeline,
            compile_seed,
            normalize_flags(flags),
            target,
            tuple(sorted((str(k), v) for k, v in options.items())),
        )
        return _Request(
            conn=conn,
            msg_id=msg_id,
            op=op,
            key=key,
            composition=composition,
            target=target,
            pipeline=pipeline,
            compile_seed=compile_seed,
            flags=flags,
            options=options,
            elements=elements,
            deadline=deadline,
            arrived=arrived,
        )

    def _admit(self, request: _Request) -> None:
        with self._queue_cv:
            if self._draining:
                self._counters["rejected_draining"] += 1
                reply = protocol.error_payload(
                    request.msg_id, "shutting_down", "server is draining"
                )
            elif len(self._queue) >= self.config.max_queue:
                self._counters["rejected_busy"] += 1
                reply = protocol.error_payload(
                    request.msg_id,
                    "server_busy",
                    f"admission queue is full ({self.config.max_queue} waiting)",
                )
            else:
                self._counters["admitted"] += 1
                self._queue.append(request)
                self._queue_cv.notify_all()
                return
        request.conn.send(reply)

    # -- dispatcher --------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._queue_cv:
                while not self._queue and not self._draining:
                    self._queue_cv.wait()
                if not self._queue:
                    return  # draining and drained
                head = self._queue.popleft()
            if head.expired(time.monotonic()):
                self._reject_expired(head)
                continue
            batch = [head]
            self._coalesce_into(batch)
            self._dispatch(batch)

    def _coalesce_into(self, batch: List[_Request]) -> None:
        """Pull queued same-key requests into ``batch`` (up to max_coalesce).

        With a positive ``coalesce_window`` the dispatcher also lingers for
        up to that many seconds so near-simultaneous requests have a chance
        to arrive — trading a bounded latency bump for bigger dispatches.
        """
        deadline = time.monotonic() + self.config.coalesce_window
        with self._queue_cv:
            self._take_matches_locked(batch)
            while (
                self.config.coalesce_window > 0
                and len(batch) < self.config.max_coalesce
                and not self._draining
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._queue_cv.wait(timeout=remaining)
                self._take_matches_locked(batch)

    def _take_matches_locked(self, batch: List[_Request]) -> None:
        if len(batch) >= self.config.max_coalesce:
            return
        key = batch[0].key
        now = time.monotonic()
        kept: deque = deque()
        expired: List[_Request] = []
        for queued in self._queue:
            if len(batch) < self.config.max_coalesce and queued.key == key:
                if queued.expired(now):
                    expired.append(queued)
                else:
                    batch.append(queued)
            else:
                kept.append(queued)
        self._queue.clear()
        self._queue.extend(kept)
        for request in expired:
            self._reject_expired(request, locked=True)

    def _reject_expired(self, request: _Request, locked: bool = False) -> None:
        if locked:
            self._counters["rejected_deadline"] += 1
        else:
            with self._lock:
                self._counters["rejected_deadline"] += 1
        request.conn.send(
            protocol.error_payload(
                request.msg_id,
                "deadline_exceeded",
                "deadline expired while queued",
            )
        )

    def _dispatch(self, batch: List[_Request]) -> None:
        if batch[0].key[0] == "compile":
            self._dispatch_compile(batch)
        else:
            self._dispatch_run(batch)

    def _dispatch_compile(self, batch: List[_Request]) -> None:
        head = batch[0]
        try:
            model = self.session.compile_model(
                head.composition,
                pipeline=head.pipeline,
                seed=head.compile_seed,
                flags=head.flags,
                fingerprint=head.key[1],
            )
        except Exception as exc:  # noqa: BLE001 - mapped to a wire error
            self._fail_batch(batch, exc, retried=False)
            return
        stats = model.stats
        payload = {
            "pipeline": head.pipeline,
            "target": head.target,
            "compile_seconds": stats.total_seconds,
            "artifacts": {
                "hits": stats.artifact_hits,
                "misses": stats.artifact_misses,
                "writes": stats.artifact_writes,
            },
        }
        self._complete_batch(batch, lambda request, span: {"compile": payload})

    def _dispatch_run(self, batch: List[_Request]) -> None:
        head = batch[0]
        inputs_batch = [inputs for request in batch for inputs, _, _ in request.elements]
        trials_list = [trials for request in batch for _, trials, _ in request.elements]
        seeds = [seed for request in batch for _, _, seed in request.elements]

        def dispatch() -> List:
            instance = self.session.compile(
                head.composition,
                target=head.target,
                pipeline=head.pipeline,
                seed=head.compile_seed,
                flags=head.flags,
                fingerprint=head.key[1],
            )
            return instance.run_batch(
                inputs_batch, num_trials=trials_list, seed=seeds, **head.options
            )

        try:
            results = dispatch()
        except _TRANSIENT:
            with self._lock:
                self._counters["retries"] += 1
            try:
                results = dispatch()
            except Exception as exc:  # noqa: BLE001 - mapped to a wire error
                self._fail_batch(batch, exc, retried=True)
                return
        except Exception as exc:  # noqa: BLE001 - mapped to a wire error
            self._fail_batch(batch, exc, retried=False)
            return

        coalesced = len(batch)
        wires = [protocol.results_to_wire(result) for result in results]
        offset = 0
        spans: List[Tuple[int, int]] = []
        for request in batch:
            spans.append((offset, offset + len(request.elements)))
            offset += len(request.elements)

        def build(request: _Request, span: Tuple[int, int]) -> Dict[str, object]:
            lo, hi = span
            if request.op == "run":
                return {"results": wires[lo], "coalesced": coalesced}
            return {"results": wires[lo:hi], "coalesced": coalesced}

        self._complete_batch(batch, build, spans=spans)

    def _complete_batch(
        self,
        batch: List[_Request],
        build: Callable[[_Request, Optional[Tuple[int, int]]], Dict[str, object]],
        spans: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        now = time.monotonic()
        # Counters update BEFORE the responses go out so a client that reads
        # ``stats`` right after its response sees its own request counted.
        with self._lock:
            self._counters["completed"] += len(batch)
            self._counters["dispatches"] += 1
            if len(batch) > 1:
                self._counters["coalesced_requests"] += len(batch)
            if len(batch) > self._counters["max_batch"]:
                self._counters["max_batch"] = len(batch)
            for request in batch:
                self._latencies.append((now - request.arrived) * 1000.0)
        dropped = 0
        for index, request in enumerate(batch):
            fields = build(request, spans[index] if spans else None)
            if not request.conn.send(protocol.ok_payload(request.msg_id, **fields)):
                dropped += 1
        if dropped:
            with self._lock:
                self._counters["dropped_responses"] += dropped

    def _fail_batch(self, batch: List[_Request], exc: Exception, retried: bool) -> None:
        if isinstance(exc, (CompilationError, ModelStructureError)):
            code = "compile_error"
        elif isinstance(exc, (ValueError, TypeError, KeyError)):
            code = "bad_request"
        elif isinstance(exc, _TRANSIENT + (EngineError,)):
            code = "engine_error"
        else:
            code = "internal"
        message = f"{type(exc).__name__}: {exc}"
        if retried:
            message += " (after one retry)"
        with self._lock:
            self._counters["failed"] += len(batch)
            self._counters["dispatches"] += 1
        for request in batch:
            request.conn.send(protocol.error_payload(request.msg_id, code, message))

    # -- stats -------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Operational counters: queue, coalescing, caches, latency tails."""
        with self._lock:
            counters = dict(self._counters)
            depth = len(self._queue)
            latencies = sorted(self._latencies)
            draining = self._draining
        completed = counters["completed"]
        latency: Dict[str, object] = {"count": len(latencies)}
        if latencies:
            def percentile(q: float) -> float:
                return latencies[min(len(latencies) - 1, int(q * (len(latencies) - 1) + 0.5))]

            latency.update(
                p50_ms=percentile(0.50),
                p90_ms=percentile(0.90),
                p99_ms=percentile(0.99),
                max_ms=latencies[-1],
                mean_ms=sum(latencies) / len(latencies),
            )
        return {
            "queue_depth": depth,
            "max_queue": self.config.max_queue,
            "draining": draining,
            "uptime_seconds": time.monotonic() - self._started,
            "requests": {
                key: counters[key]
                for key in (
                    "admitted",
                    "completed",
                    "failed",
                    "retries",
                    "rejected_busy",
                    "rejected_deadline",
                    "rejected_draining",
                    "dropped_responses",
                )
            },
            "coalesce": {
                "dispatches": counters["dispatches"],
                "coalesced_requests": counters["coalesced_requests"],
                "max_batch": counters["max_batch"],
                "rate": (counters["coalesced_requests"] / completed) if completed else 0.0,
            },
            "session": self.session.cache_info(),
            "artifacts": self.store.counters() if self.store is not None else None,
            # On-disk tuned-pipeline entries + this process's lookup counters;
            # the session's own "tuned" sub-dict (above) counts pipeline="auto"
            # resolutions, this one counts store-level entries/traffic.
            "tuned_pipelines": (
                self.store.tuned_stats() if self.store is not None else None
            ),
            "latency_ms": latency,
        }
