"""``python -m shiftlab``: the same command line as the ``shiftlab`` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
