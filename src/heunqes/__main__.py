"""Entry point of `python -m heunqes` and of the `heunqes` console script.

main owns the process, so it sets three things that only a whole process may:

- No cyclic garbage collector. A command builds no reference cycles it needs
  freed before it exits, yet while numpy and the cli import, the collector
  runs dozens of collections over their growing object graph. So main
  disables it first, before anything else loads; reference counting still
  frees every object that is not part of a cycle, and the workers that scan
  and verify fork inherit the setting.
- One OpenBLAS thread. Every eigenproblem of the program is at most 76 x 76,
  and the oracle's tridiagonal LAPACK routines use no BLAS threads, so an
  OpenBLAS worker thread speeds up no command. It does spin while numpy
  imports, which slows each command's start, and `scan` and `verify` would
  fork a threaded process. So main asks OpenBLAS for one thread before numpy
  loads, unless the caller has set OPENBLAS_NUM_THREADS.
- A frozen heap once the command has returned. Its output is written by
  then, and what is left of the process is interpreter shutdown, which
  collects even with the collector disabled and would walk numpy's whole
  object graph only to free it. gc.freeze() moves every live object out of
  its reach; at exit the memory goes back to the system all the same.

A library `import heunqes`, and a caller of `heunqes.cli.main` in its own
process, do none of these.
"""

import gc
import os


def main(argv=None) -> int:
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main  # loads numpy, which reads the variable once

    code = cli_main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
