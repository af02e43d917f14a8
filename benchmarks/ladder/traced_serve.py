"""``repro serve`` with its spans written out, for traced serve-mix runs.

Runs the CLI entry point unchanged, so the daemon is wired exactly as
``repro serve`` wires it.  The server installs a tracer of its own and
removes it at shutdown; this launcher keeps a reference to the server
and, once the CLI returns (after SIGINT), writes that tracer's export
(spans and metrics) as JSON to the file named first.

Usage: ``PYTHONPATH=src python benchmarks/ladder/traced_serve.py OUT
serve --port 0 ...`` (everything after OUT is ``repro``'s argv).
"""

from __future__ import annotations

import json
import sys

import repro.serve
from repro.cli import main


def run(out: str, argv) -> int:
    servers = []
    make_server = repro.serve.make_server

    def recording_make_server(*args, **kwargs):
        servers.append(make_server(*args, **kwargs))
        return servers[-1]

    # ``repro serve`` imports make_server from repro.serve when it runs.
    repro.serve.make_server = recording_make_server
    code = main(argv)
    with open(out, "w") as handle:
        json.dump(servers[0].tracer.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
