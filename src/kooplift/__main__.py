"""``python -m kooplift <command> --config <path>``: the command-line driver."""

from .cli import entry

entry()
