"""Run one switchsde CLI command under span wrappers (traced CLI runs).

    python3 perfbench/cli_child.py --spans SPANS.json --config CFG --out DIR

Behaves like ``python -m switchsde.cli --config CFG --out DIR`` and exits
with its code; the spans of the command, including one for the time taken by
``import switchsde.cli``, are written to SPANS.json.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    k = argv.index("--spans")
    spans_path = Path(argv[k + 1])
    cli_argv = argv[:k] + argv[k + 2:]
    t0 = time.perf_counter()
    import switchsde.cli

    t1 = time.perf_counter()
    from tracing import Tracer, record_import

    tracer = Tracer()
    record_import(tracer.spans, t0, t1)
    tracer.install()
    try:
        return switchsde.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        config = Path(cli_argv[cli_argv.index("--config") + 1])
        command = json.loads(config.read_text())["command"]
        for span in tracer.spans:
            if span[2] == "cli.main":
                span[6] = {"command": command}
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
