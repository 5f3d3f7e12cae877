"""The traced form of one ``cli`` op: ``python -X importtime cli_child.py
SPANS_OUT <cli arguments>``.

It times ``import fuzzyvault.cli`` and an in-process ``cli.main`` call with
every wrapper of ``spans.WRAPS`` installed, writes the spans to SPANS_OUT
and exits with ``main``'s code, so the parent checks the same exit code and
stdout as for an untraced op.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import fuzzyvault.cli as cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        Path(out).write_text(tracer.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
