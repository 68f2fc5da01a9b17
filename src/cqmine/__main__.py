"""Process entry of ``python -m cqmine`` and the ``cqmine`` console script."""

from __future__ import annotations

import gc
import os
import sys

from .cli import main

# 128 + SIGPIPE, what a shell reports for a writer whose reader went away
EXIT_BROKEN_PIPE = 141


def entry() -> int:
    """Run the command line, then leave the process quickly and quietly.

    A reader that closes the pipe early (``cqmine mine ... | head``) ends
    the run with ``EXIT_BROKEN_PIPE`` and no traceback.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is gone; point it at devnull so the interpreter's last flush
        # at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    # the run's memos are gone; freezing the interpreter's own objects spares
    # the collections made while it finalizes (about 0.01 s per run)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
