"""``python -m ldikit``: the same command line as the ``ldikit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
