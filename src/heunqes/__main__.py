"""Entry point of `python -m heunqes` and of the `heunqes` console script.

main owns the process, so it sets two things that only a whole process may:

- One OpenBLAS thread. Every eigenproblem of the program is at most 76 x 76,
  and the oracle's tridiagonal LAPACK routines use no BLAS threads, so an
  OpenBLAS worker thread speeds up no command. It does spin while numpy
  imports, which slows each command's start, and `scan` and `verify` would
  fork a threaded process. So main asks OpenBLAS for one thread before numpy
  loads, unless the caller has set OPENBLAS_NUM_THREADS.
- A frozen heap once the command has returned. Its output is written by
  then, and what is left of the process is interpreter shutdown, whose
  garbage collections would walk numpy's whole object graph only to free it.
  gc.freeze() moves every live object out of their reach; at exit the memory
  goes back to the system all the same.

A library `import heunqes`, and a caller of `heunqes.cli.main` in its own
process, do neither.
"""

import gc
import os


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main  # loads numpy, which reads the variable once

    code = cli_main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
