#!/usr/bin/env python3
"""The combined file/log server (paper Sections 3.1 and 6).

One server, one shared buffer pool, two file types, and the same utility
code (UIO) working on both.

Run:  python examples/combined_server.py
"""

from repro.combined import CombinedServer
from repro.fs import uio_copy


def main() -> None:
    server = CombinedServer.create(block_size=512, degree_n=8)

    print("== one namespace, two file types ==")
    doc = server.create_file("/report.txt")
    doc.write(b"Quarterly numbers: 42\n")
    events = server.create_file("/log/events")
    events.append(b"report created", force=True)
    print(f"  regular file: {server.open_file('/report.txt').read()!r}")
    print(f"  log file:     {[e.data for e in server.open_file('/log/events').entries()]}")

    print("== the same utility code works on both (UIO) ==")
    src = server.uio_open("/report.txt")
    dst = server.uio_open("/log/report-archive", create=True)
    copied = uio_copy(src, dst)
    print(f"  archived the report into a log file in {copied} chunk(s)")

    print("== shared buffer pool ==")
    kinds = {key[0] for key in server.cache._entries}
    print(f"  cache namespaces in one pool: {sorted(kinds)}")


if __name__ == "__main__":
    main()
