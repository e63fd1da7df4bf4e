"""The server process of the HTTP workloads: public API only.

Usage: ``server_child.py STORE_DIR full|smoke`` with ``src`` on
``PYTHONPATH``.  Prints ``{"port": N}`` once the listener is bound, serves
until SIGTERM (or until its stdin closes), drains gracefully, prints ``{"peak_rss_kb": N}`` and exits 0.
The store is opened as it is: the parent warmed it, so this process must
never solve an LP (the parent asserts that from ``/v1/stats``).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import threading

from repro import RegenerationServer, RegenerationService

import inputs


def main() -> int:
    store_dir, scale = sys.argv[1], sys.argv[2]
    sizing = inputs.SMOKE if scale == "smoke" else inputs.FULL
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # The parent holds our stdin open; EOF means it is gone, so stop too.
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    with RegenerationService(sizing.schema(), store=store_dir) as service:
        server = RegenerationServer(service, port=0).start()
        print(json.dumps({"port": server.port}), flush=True)
        stop.wait()
        server.shutdown()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
