"""``python -m heckemod``: the same command line as the ``heckemod`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
