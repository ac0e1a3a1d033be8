"""``python -m zo_meshopt``: the same command line as ``zo-meshopt``."""

from .cli import entry

if __name__ == "__main__":
    entry()
