"""``python -m gossipgd``: the same command line as the ``gossipgd`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
