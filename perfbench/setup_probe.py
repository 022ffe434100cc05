"""Time specforge's set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py <src dir> <corpus dir>

Set-up is what every ``specforge generate`` pays before its first cell:
importing the CLI, loading the prompt templates and loading the corpus.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import specforge.cli  # noqa: E402,F401
from specforge.prompts import default_template_dir, load_templates  # noqa: E402
from specforge.runner import load_corpus  # noqa: E402

load_templates(default_template_dir())
load_corpus(sys.argv[2])
print(time.perf_counter() - started)
