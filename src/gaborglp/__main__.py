"""`python -m gaborglp …` runs the command-line interface (see `gaborglp.cli`)."""

import sys

from .cli import main

sys.exit(main())
