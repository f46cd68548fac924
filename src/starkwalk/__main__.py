"""`python -m starkwalk`: the same command line as the `starkwalk` script."""
import sys

from .cli import main

sys.exit(main())
