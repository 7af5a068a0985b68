"""Traced stand-in for ``python -m nlscrit.cli``: one cold process that
times its own ``import nlscrit.cli``, installs the span wrappers and then
calls ``nlscrit.cli.main(argv)``.

    python3 perfbench/child.py SPANS_JSON ARG...

stdout, files and the exit code are those of the plain command; the import
time and the spans go to SPANS_JSON.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import nlscrit.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = nlscrit.cli.main(argv)
    except SystemExit as exc:   # argparse usage errors exit 2
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
