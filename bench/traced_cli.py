"""Run one ``trackside`` command with the benchmark's tracer installed.

    python bench/traced_cli.py SPANS.npz JOB -- <trackside arguments>

Behaves like ``python -m trackside.cli <arguments>`` (same outputs, same
exit code) and writes the process's spans and aggregates to SPANS.npz.
"""

import sys
import time

import tracer


def main() -> int:
    path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.npz JOB -- ARGS...")
    start = time.perf_counter()
    import trackside.cli

    imported = time.perf_counter() - start
    spans = tracer.Tracer(int(job))
    spans.add("cli.import_s", imported)
    tracer.install(spans)
    code = trackside.cli.main(argv)
    sys.stdout.flush()
    spans.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
