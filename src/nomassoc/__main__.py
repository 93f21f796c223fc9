"""``python -m nomassoc``: the command-line interface."""

from .cli import main

main()
