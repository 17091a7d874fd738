"""One sha256 over every output of the benchmark's requests.

    PYTHONPATH=src python tests/output_digest.py

For each perfbench workload in turn and seeds 1, 2 and 3, it builds the
inputs with perfbench's `setup` in a temporary directory, sends every
request and the known-failure probe to `probfpc.cli.main` in-process, at
the default recursion limit, and feeds repr((label, exit code, stdout,
stderr)) of each to the hash.  No output names the directory.  Two
checkouts that print the same digest give byte-identical outputs on the
benchmark; the directory is removed afterwards.
"""

import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import setup                 # noqa: E402
from perfbench.workloads import WORKLOADS       # noqa: E402


def run(main, argv):
    """(exit code or exception name, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = main(argv, out, err)
    except SystemExit as e:
        code = e.code
    except Exception as e:      # a crash is an output too
        code = type(e).__name__
    return code, out.getvalue(), err.getvalue()


def digest():
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in (1, 2, 3):
                cli, plan = setup(workload, seed, Path(tmp) / "work")
                for req in plan.requests + ([plan.probe] if plan.probe else []):
                    h.update(repr((req.label, *run(cli.main, req.argv))).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
