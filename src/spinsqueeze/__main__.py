"""``python -m spinsqueeze``: the command line of ``spinsqueeze.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
