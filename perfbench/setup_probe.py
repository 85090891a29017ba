"""Time one benchmark set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD

The same steps as the set-up of ``run.py``: imports, configs, warm-up.
"""

import time

T0 = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402  (pins BLAS threads before numpy is imported)


def main() -> int:
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=run.OUT))
    try:
        run.prepare(cli, sys.argv[1], workdir)
        print(time.perf_counter() - T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
