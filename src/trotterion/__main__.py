"""``python -m trotterion``: the same command line as the ``trotterion`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
