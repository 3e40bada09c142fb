"""``python -m ladderfield``: the same command line as the ``ladderfield`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
