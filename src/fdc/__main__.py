"""`python -m fdc`: the `fdc` command."""

import sys

from .cli import main

sys.exit(main())
