import os
import sys

from .cli import EXIT_BROKEN_PIPE, main

try:
    status = main()
    sys.stdout.flush()  # a short output is still buffered here
except BrokenPipeError:
    status = EXIT_BROKEN_PIPE
if status == EXIT_BROKEN_PIPE:
    # So that the flush at exit cannot raise again ("Note on SIGPIPE", signal docs).
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
sys.exit(status)
