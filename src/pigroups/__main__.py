"""``python -m pigroups``: the same entry point as the ``pigroups`` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
