"""`python -m immersions`: the command-line front end of cli.py."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
