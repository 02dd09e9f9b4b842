"""Run one ``masec`` CLI command with the span tracer installed.

Usage: python3 perfbench/launch.py SRC_DIR TRACE_OUT -- <masec arguments>

Imports masec from SRC_DIR, times that import, installs the tracer, calls
``masec.cli.main`` and writes the import time, per-layer totals and spans
to TRACE_OUT as JSON, also when the command fails.  The exit status is the
command's own.
"""
import json
import sys
import time


def main(argv: list[str]) -> int:
    src, out, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SRC_DIR TRACE_OUT -- ARGS...")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import masec  # noqa: F401
    import masec.cli
    import_s = time.perf_counter() - start

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return masec.cli.main(args)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
