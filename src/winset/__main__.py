"""``python -m winset``: the same command line as the ``winset`` script."""

import sys

from .cli import main

sys.exit(main())
