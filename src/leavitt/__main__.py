"""Run the command line as ``python -m leavitt``."""

from .cli import main

raise SystemExit(main())
