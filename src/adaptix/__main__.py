"""The process entry of ``python -m adaptix`` and the ``adaptix`` script.

It imports no numpy, so :func:`console` can default BLAS to one thread
before numpy loads it; ``import adaptix`` as a library sets nothing.
"""

import contextlib
import os
import sys

#: The thread counts BLAS and OpenMP read when numpy loads them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def console() -> None:
    """Run :func:`adaptix.cli.main` with BLAS on one thread unless the
    environment sets a count, flush stdout and stderr, and end the process
    with ``os._exit`` and main's code.

    adaptix's matrices are a few rows across, where a BLAS thread pool
    costs more CPU time than it saves, and the kernel uses no BLAS, so the
    default changes no bit. ``os._exit`` skips the interpreter's teardown
    (module clean-up and collection passes over all that numpy and scipy
    loaded), which changes no output: by then every artifact is a closed
    file and every forked worker is reaped. No ``atexit`` handler runs;
    adaptix registers none. A stream that cannot be flushed, full or
    closed, does not replace the code. An exception that escapes ``main``,
    such as argparse's SystemExit or a KeyboardInterrupt, ends the process
    as Python usually does.
    """
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError, ValueError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    console()
