"""``python -m lexperm`` runs the ``lexperm`` command line."""

import sys

from .cli import main

sys.exit(main())
