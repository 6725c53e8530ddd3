"""Wire protocol for the serving daemon: newline-delimited JSON messages.

Every message is one JSON object on one line.  Requests carry ``id`` (client
chosen, echoed back) and ``op``; responses carry ``id`` and ``ok``.  Failed
requests get ``ok: false`` plus a structured ``error`` object with a stable
``code`` (see :data:`ERROR_CODES`), a human-readable ``message`` and a
``retryable`` hint.

Float fidelity: results cross the wire as JSON numbers.  Python's ``json``
module emits ``repr``-style shortest round-trip representations (and the
``NaN``/``Infinity`` tokens), so every IEEE-754 double deserialises to the
bitwise-identical value — which is what lets the concurrency suite assert
served results equal solo in-process runs exactly.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional

import numpy as np

from ..cogframe.runner import RunResults, TrialResult

__all__ = [
    "ERROR_CODES",
    "MessageReader",
    "encode",
    "error_payload",
    "jsonable",
    "ok_payload",
    "results_from_wire",
    "results_to_wire",
    "send_message",
]

#: Stable error codes a response's ``error.code`` may carry.
ERROR_CODES = (
    "server_busy",  # bounded admission queue is full (backpressure)
    "deadline_exceeded",  # request expired before it was dispatched
    "shutting_down",  # daemon is draining; no new admissions
    "bad_request",  # malformed request (unknown op/model, bad shapes)
    "compile_error",  # the model failed to compile
    "engine_error",  # engine dispatch failed (after the retry, if transient)
    "internal",  # unexpected server-side failure
)

_RETRYABLE = {"server_busy", "engine_error"}


def encode(message: Dict[str, object]) -> bytes:
    """One message, one line: compact JSON terminated by ``\\n``."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def send_message(sock: socket.socket, message: Dict[str, object]) -> None:
    sock.sendall(encode(message))


def ok_payload(msg_id, **fields) -> Dict[str, object]:
    payload: Dict[str, object] = {"id": msg_id, "ok": True}
    payload.update(fields)
    return payload


def error_payload(
    msg_id, code: str, message: str, retryable: Optional[bool] = None
) -> Dict[str, object]:
    if retryable is None:
        retryable = code in _RETRYABLE
    return {
        "id": msg_id,
        "ok": False,
        "error": {"code": code, "message": message, "retryable": bool(retryable)},
    }


class MessageReader:
    """Buffered line reader turning a socket stream into message dicts."""

    def __init__(self, sock: socket.socket, max_line: int = 64 * 1024 * 1024):
        self._sock = sock
        self._buffer = bytearray()
        self._max_line = max_line

    def read(self) -> Optional[Dict[str, object]]:
        """Next message, or ``None`` on a clean EOF."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                if not line.strip():
                    continue
                message = json.loads(line.decode("utf-8"))
                if not isinstance(message, dict):
                    raise ValueError("wire messages must be JSON objects")
                return message
            if len(self._buffer) > self._max_line:
                raise ValueError("wire message exceeds the line-length bound")
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buffer.strip():
                    raise EOFError("connection closed mid-message")
                return None
            self._buffer.extend(chunk)


# ---------------------------------------------------------------------------
# RunResults <-> wire
# ---------------------------------------------------------------------------


def jsonable(value):
    """Recursively convert numpy arrays/scalars to JSON-compatible values.

    Clients pass model inputs exactly as ``EngineInstance.run`` accepts them
    (lists, dicts, ndarrays); this flattens the numpy pieces without touching
    float values, so the server-side ``normalize_inputs`` reconstructs the
    bitwise-identical arrays.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def _array_to_wire(value) -> List[float]:
    # tolist() preserves shape (nested lists) and emits exact-repr floats.
    return np.asarray(value, dtype=float).tolist()


def results_to_wire(results: RunResults) -> Dict[str, object]:
    """Serialise a :class:`RunResults` to a JSON-compatible dict."""
    return {
        "model_name": results.model_name,
        "engine": results.engine,
        "wall_seconds": results.wall_seconds,
        "trials": [
            {
                "passes": int(trial.passes),
                "outputs": {
                    name: _array_to_wire(value)
                    for name, value in trial.outputs.items()
                },
                "monitored": {
                    name: [_array_to_wire(step) for step in steps]
                    for name, steps in trial.monitored.items()
                },
            }
            for trial in results.trials
        ],
    }


def results_from_wire(payload: Dict[str, object]) -> RunResults:
    """Rebuild a :class:`RunResults` from its wire form (bitwise floats)."""
    trials = [
        TrialResult(
            outputs={
                name: np.array(value, dtype=float)
                for name, value in trial["outputs"].items()
            },
            passes=int(trial["passes"]),
            monitored={
                name: [np.array(step, dtype=float) for step in steps]
                for name, steps in trial["monitored"].items()
            },
        )
        for trial in payload["trials"]
    ]
    return RunResults(
        model_name=payload["model_name"],
        trials=trials,
        wall_seconds=float(payload["wall_seconds"]),
        engine=payload["engine"],
    )
