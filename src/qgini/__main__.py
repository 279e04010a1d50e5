"""``python -m qgini``: the ``qgini`` command, runnable from a checkout without installing."""

from qgini.cli import main

if __name__ == "__main__":
    main()
