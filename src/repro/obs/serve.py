"""A stdlib HTTP endpoint for Prometheus scrapes: ``/metrics``.

:class:`MetricsServer` wraps a render callable (anything returning
exposition text — typically :func:`repro.obs.prometheus.
render_prometheus` over a registry or a re-read snapshot file) in a
:class:`~http.server.ThreadingHTTPServer` on a daemon thread.  The
render runs per scrape, so the endpoint always reflects current state;
``port=0`` binds an ephemeral port (tests read it back from
``server.port``).

No dependency beyond the stdlib on purpose: the repo's serving story
is synchronous Python, and a scrape endpoint that needs a web
framework would be a heavier dependency than the thing it observes.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["CONTENT_TYPE", "MetricsServer"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The exposition-format content type Prometheus expects."""


class MetricsServer:
    """Serve ``/metrics`` (rendered per scrape) and ``/healthz``."""

    def __init__(
        self,
        render: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.render = render
        self.host = host
        self._requested_port = int(port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("metrics server already started")
        render = self.render

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path == "/metrics":
                    try:
                        body = render().encode("utf-8")
                    except Exception as exc:
                        detail = f"render failed: {exc}\n".encode()
                        self.send_response(500)
                        self.send_header("Content-Length", str(len(detail)))
                        self.end_headers()
                        self.wfile.write(detail)
                        return
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, *args: object) -> None:
                """Scrape traffic stays out of stderr."""

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="repro-metrics-server",
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> None:
        """Block until interrupted (the CLI ``expose --serve`` path)."""
        if self._httpd is None:
            self.start()
        thread = self._thread
        assert thread is not None
        try:
            while thread.is_alive():
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
