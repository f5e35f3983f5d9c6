"""The scrape surface: Prometheus/JSON metrics and health endpoints.

A :class:`MetricsExporter` runs a stdlib :mod:`http.server` on its own
daemon thread next to the NDJSON service (started by ``repro serve
--metrics-port``), serving:

``/metrics``
    The process registry in Prometheus text exposition format
    (:meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`).
``/metrics.json``
    The raw snapshot plus the sliding-window rollups (rates and
    windowed quantiles) and any host-supplied ``info`` payload
    (per-database LSN/fact/session counts) — what ``repro top`` reads.
``/healthz``
    Process liveness: 200 whenever the thread can answer at all.
``/readyz``
    Service readiness: 200 only while every registered check passes —
    recovery finished, WAL writable (last append succeeded), commit
    queue below its threshold, last fsync not stale behind appends.
    503 with a JSON body naming the failing checks otherwise.

A second daemon thread samples the registry once a second into a
:class:`~repro.obs.window.SlidingWindow`, so windowed rates exist even
when nobody is scraping.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.window import SlidingWindow

__all__ = [
    "MetricsExporter",
    "ReadinessProbe",
    "DEFAULT_QUEUE_MAX",
    "DEFAULT_FSYNC_MAX_AGE",
]

_LOG = logging.getLogger("repro.obs.export")

#: Readiness thresholds: a commit queue deeper than this, or appends
#: running this many seconds ahead of the last successful fsync, mean
#: the service should stop receiving new traffic.
DEFAULT_QUEUE_MAX = 64
DEFAULT_FSYNC_MAX_AGE = 60.0


class ReadinessProbe:
    """The ``/readyz`` decision: named checks over the live registry."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        queue_max: int = DEFAULT_QUEUE_MAX,
        fsync_max_age: float = DEFAULT_FSYNC_MAX_AGE,
        clock: Callable[[], float] = time.time,
    ):
        self._registry = registry or default_registry()
        self.queue_max = queue_max
        self.fsync_max_age = fsync_max_age
        self._clock = clock
        self._ready = threading.Event()

    def mark_ready(self, ready: bool = True) -> None:
        """Flip the recovery-finished bit (the server sets it once it
        is accepting connections)."""
        if ready:
            self._ready.set()
        else:
            self._ready.clear()

    def checks(self) -> Dict[str, Dict[str, object]]:
        """Every check's verdict with the number it judged."""
        snapshot = self._registry.snapshot()

        def gauge(name: str, default: float = 0.0) -> float:
            value = snapshot.get(name, default)
            return value if isinstance(value, (int, float)) else default

        out: Dict[str, Dict[str, object]] = {}
        out["recovery"] = {
            "ok": self._ready.is_set(),
            "detail": "serving" if self._ready.is_set() else "starting",
        }
        # wal.healthy is 1 after a successful append, 0 after a failed
        # one; a process that never appended (no WAL, read-only) has no
        # opinion and passes.
        healthy = gauge("wal.healthy", 1.0)
        out["wal_writable"] = {
            "ok": bool(healthy),
            "detail": f"wal.healthy={healthy:g}",
        }
        depth = gauge("txn.queue_depth")
        out["commit_queue"] = {
            "ok": depth <= self.queue_max,
            "detail": f"depth {depth:g} (max {self.queue_max})",
        }
        # Stale fsync: appends are being attempted but the last
        # successful fsync is falling behind them. Servers running
        # sync=False never fsync (last_fsync stays 0) and pass.
        last_fsync = gauge("wal.last_fsync_unix")
        last_append = gauge("wal.last_append_unix")
        lag = last_append - last_fsync if last_fsync > 0 else 0.0
        out["fsync_age"] = {
            "ok": lag <= self.fsync_max_age,
            "detail": f"append-over-fsync lag {lag:.1f}s "
            f"(max {self.fsync_max_age:g}s)",
        }
        return out

    def ready(self) -> Tuple[bool, Dict[str, Dict[str, object]]]:
        checks = self.checks()
        return all(check["ok"] for check in checks.values()), checks


class _Handler(BaseHTTPRequestHandler):
    server: "_HttpServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        exporter = self.server.exporter
        path = urlparse(self.path).path
        try:
            if path == "/metrics":
                body = exporter.registry.render_prometheus().encode("utf-8")
                self._reply(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path == "/metrics.json":
                self._reply_json(200, exporter.payload())
            elif path == "/healthz":
                self._reply_json(200, {"status": "ok"})
            elif path == "/readyz":
                ok, checks = exporter.probe.ready()
                self._reply_json(
                    200 if ok else 503, {"ready": ok, "checks": checks}
                )
            else:
                self._reply_json(404, {"error": f"no route {path!r}"})
        except BrokenPipeError:  # scraper went away mid-reply
            pass
        except Exception as error:  # pragma: no cover - defensive
            _LOG.warning("scrape failed: %s", error)
            try:
                self._reply_json(500, {"error": str(error)})
            except OSError:
                pass

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, status: int, payload: Dict) -> None:
        self._reply(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _LOG.debug("http: " + format, *args)


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    exporter: "MetricsExporter"


def stop_serving(server) -> None:
    """Stop *server*'s running ``serve_forever`` loop without waiting out
    its 0.5 s poll: ``shutdown()`` only raises a flag that the loop reads
    when its ``select()`` returns, so throwaway connections wake it."""
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    while stopper.is_alive():
        try:
            socket.create_connection(server.server_address[:2], 1).close()
        except OSError:
            pass
        stopper.join(0.05)


class MetricsExporter:
    """The observability sidecar: scrape endpoints + window sampler."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        probe: Optional[ReadinessProbe] = None,
        info: Optional[Callable[[], Dict]] = None,
        window: Optional[SlidingWindow] = None,
        sample_interval: float = 1.0,
    ):
        self.registry = registry or default_registry()
        self.probe = probe or ReadinessProbe(self.registry)
        self.window = window or SlidingWindow()
        self._info = info
        self._interval = sample_interval
        self._http = _HttpServer((host, port), _Handler)
        self._http.exporter = self
        self._threads: list = []
        self._stop = threading.Event()
        self._started = time.time()

    # -- lifecycle -------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._http.server_address[:2]

    def url(self, path: str = "/metrics") -> str:
        host, port = self.address
        return f"http://{host}:{port}{path}"

    def start(self) -> "MetricsExporter":
        serve = threading.Thread(
            target=self._http.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        sample = threading.Thread(
            target=self._sample_loop,
            name="repro-metrics-sampler",
            daemon=True,
        )
        self._threads = [serve, sample]
        serve.start()
        sample.start()
        return self

    def close(self) -> None:
        self._stop.set()
        stop_serving(self._http)
        self._http.server_close()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    def mark_ready(self, ready: bool = True) -> None:
        self.probe.mark_ready(ready)

    # -- data ------------------------------------------------------
    def _sample_loop(self) -> None:
        # Seed the delta baseline immediately so the first interval's
        # movement is already attributed.
        self.window.ingest(self.registry.snapshot())
        while not self._stop.wait(self._interval):
            try:
                self.window.ingest(self.registry.snapshot())
            except Exception as error:  # pragma: no cover - defensive
                _LOG.warning("window sample failed: %s", error)

    def sample_now(self) -> None:
        """Force one window sample (tests; the loop owns production)."""
        self.window.ingest(self.registry.snapshot())

    def payload(self) -> Dict:
        """The ``/metrics.json`` document."""
        out: Dict = {
            "uptime_seconds": time.time() - self._started,
            "metrics": self.registry.snapshot(),
            "window": self.window.summary(),
        }
        if self._info is not None:
            try:
                out["info"] = self._info()
            except Exception as error:  # info must never fail a scrape
                out["info"] = {"error": str(error)}
        return out
