"""``python -m frstokes``: the ``frs`` command, run without an install."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
