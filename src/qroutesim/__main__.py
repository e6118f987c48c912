"""``python -m qroutesim``: the command-line front end, as the ``qroutesim`` script."""

from .cli import main

raise SystemExit(main())
