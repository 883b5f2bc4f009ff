"""``python -m waverate``: the waverate command line (see waverate.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
