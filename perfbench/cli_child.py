"""Run one ``artifact`` CLI verb under the benchmark's tracer.

    python3 perfbench/cli_child.py {plain|span|count} <verb> [arguments...]

Behaves like ``python -m artifact <verb> ...``: same stdout, exit status and
tracebacks.  On the way out it adds one line to stderr, starting with
``layers.TRACE_MARK``, that holds the pass's spans and counters; the
benchmark strips it before checking stderr.  Mode "plain" installs no
wrappers; it is the untraced reference of a traced run, started the same
way as the traced passes so that the tracing overhead compares like with
like.
"""

import json
import sys

import artifact.cli as cli

import layers


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    if mode == "span":
        tracer.install_cli_stages(cli)
    if mode != "plain":
        tracer.install(mode)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stderr.write(layers.TRACE_MARK + json.dumps(tracer.export()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
