"""`python -m pideg ...` runs the `pideg` command line."""

from .cli import main

raise SystemExit(main())
