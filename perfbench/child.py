"""Run one finsite command under the tracer, for traced cli-session runs.

    python3 perfbench/child.py RAW_JSON SPANS_TSV ARGS...

Behaves like `python -m finsite ARGS...` (same stdout, same exit code) and
also writes the raw per-layer values and every span, import spans
included, to the two files.  finsite must be importable (PYTHONPATH).
"""

import json
import sys

import spans


def main() -> int:
    raw_path, spans_path, *argv = sys.argv[1:]
    tracer = spans.Tracer()
    with tracer.imports():
        import finsite.cli
    tracer.install()
    tracer.begin_case(0)
    try:
        code = finsite.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(raw_path, "w") as fh:
            json.dump(tracer.raw(), fh)
        tracer.write(spans_path, [" ".join(argv)])
    return code


if __name__ == "__main__":
    raise SystemExit(main())
