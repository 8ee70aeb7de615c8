"""``python -m mumkit``: the mumkit command line, as the ``mumkit`` script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
