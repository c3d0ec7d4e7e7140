"""`python -m gf2lie ...`: the same command line as the `gf2lie` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
