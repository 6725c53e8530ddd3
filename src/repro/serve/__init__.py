"""Serving daemon: a coalescing request front-end over warm sessions.

``python -m repro.serve --socket /tmp/repro.sock`` boots the daemon; see
:mod:`repro.serve.server` for the admission/coalescing/drain contracts and
:mod:`repro.serve.client` for the synchronous client.
"""

from .client import ServeClient, wait_for_server
from .server import ServeConfig, Server

__all__ = [
    "ServeClient",
    "ServeConfig",
    "Server",
    "wait_for_server",
]
