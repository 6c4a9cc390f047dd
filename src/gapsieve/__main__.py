"""python -m gapsieve: the command line of gapsieve.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
