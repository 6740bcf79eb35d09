"""Run one moemerge CLI command with the tracing wrappers installed.

Usage: python3 opchild.py REPORT_JSON <moemerge arguments...>

Writes REPORT_JSON with the spans, the wall time of ``cli.main``, the
process's /proc/self/io counter deltas over that call, its resident set
size before the call and its peak resident set size. Exits with the
command's exit code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import spans


def read_io() -> dict[str, int]:
    with open("/proc/self/io", encoding="ascii") as f:
        return {k: int(v) for k, v in (line.split(":") for line in f)}


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    from moemerge import cli

    rss_before = rss_bytes()
    io_before = read_io()
    start = time.perf_counter()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        io_after = read_io()
        restore()
        report = {
            "exit": code,
            "main_wall_s": wall,
            "main_thread": threading.main_thread().ident,
            "rchar": io_after["rchar"] - io_before["rchar"],
            "wchar": io_after["wchar"] - io_before["wchar"],
            "rss_before": rss_before,
            "maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
            "spans": tracer.spans,
        }
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
