"""Throwaway local JSON server for adapter tests."""

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@contextmanager
def json_server(handler, received=None):
    """Serve POST requests; ``handler(path, body) -> (status, payload)``.
    A ``bytes`` payload is sent as it is, anything else as its JSON text.
    Each request's ``(Content-Type, raw body)`` is appended to ``received``
    when it is a list."""

    class _Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw_body = self.rfile.read(length)
            if received is not None:
                received.append((self.headers.get("Content-Type"), raw_body))
            body = json.loads(raw_body or b"{}")
            status, payload = handler(self.path, body)
            if not isinstance(payload, bytes):
                payload = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll interval keeps shutdown() from waiting out the 0.5 s default
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
