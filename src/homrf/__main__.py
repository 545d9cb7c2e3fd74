"""Entry point of `python -m homrf`: the command-line solver."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
