"""Entry point of `python -m heunqes` and of the `heunqes` console script.

Every eigenproblem of the program is at most 76 x 76, and the oracle's
tridiagonal LAPACK routines use no BLAS threads, so an OpenBLAS worker thread
speeds up no command. It does spin while numpy imports, which slows each
command's start, and `scan` and `verify` would fork a threaded process. So
main asks OpenBLAS for one thread before numpy loads, unless the caller has
set OPENBLAS_NUM_THREADS. A library `import heunqes` sets nothing.
"""

import os


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main  # loads numpy, which reads the variable once

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
