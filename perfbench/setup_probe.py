"""Set-up probe: import the CLI and parse the workload's configs, then exit.

Usage: python3 perfbench/setup_probe.py KIND:CONFIG...   (KIND is study or fit)

The benchmark times this whole process from outside, so the figure is what
a user pays before the first cell or solver iteration runs.
"""

import sys

import probdense.cli  # noqa: F401  (the import is what is measured)
from probdense.config import parse_fit_config, parse_study_config

PARSERS = {"study": parse_study_config, "fit": parse_fit_config}

for item in sys.argv[1:]:
    kind, _, path = item.partition(":")
    PARSERS[kind](path)
