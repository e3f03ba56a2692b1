"""Run one confchern CLI command, as ``python -m confchern.cli`` would, and
report its phase times on stderr as one line tagged ``PERFBENCH_CLI``.

Used by the traced run of the cli workload:

    PYTHONPATH=src python3 perfbench/cli_probe.py conf-affine --n 2 --k 2

The phases are interpreter start (measured by the parent from spawn to
``START``), ``import confchern.cli``, argument parsing, and ``main``.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

TAG = "PERFBENCH_CLI "


def main():
    argv = sys.argv[1:]
    t_import = time.perf_counter()
    from confchern import cli
    t_parse = time.perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(argv)
    except SystemExit:
        pass
    t_main = time.perf_counter()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        t_end = time.perf_counter()
        sys.stdout.flush()
        sys.stderr.write(TAG + json.dumps({
            "start": START, "import_s": t_parse - t_import,
            "parse_s": t_main - t_parse, "main_s": t_end - t_main}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
