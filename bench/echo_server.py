"""A reference HTTP service that ``serve_mixed`` calibrates against.

Answers every ``GET`` with the same small JSON object from a stdlib
``ThreadingHTTPServer``, the server ``pai-repro serve`` is built on (one
handler thread per connection), and does nothing else.  A request to it
costs what any request to the real service costs on top of its own
work: a loopback connection, a handler thread, parsing, the reply and
the wake-ups between two processes.  None of that is code of this
repository, so no change to it moves this server's latency.

Usage::

    python bench/echo_server.py

It prints ``serving on URL`` once listening, and exits 0 on SIGTERM.
"""

from __future__ import annotations

import json
import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = json.dumps({"jobs": 0, "values": list(range(40))}).encode()


class EchoHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, format, *args) -> None:
        pass


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
