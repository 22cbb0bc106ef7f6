"""``python -m capelli``: the same command line as the ``capelli`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
