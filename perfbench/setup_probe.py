"""Program set-up as a fresh process pays it: import the CLI, load the
workload CSV, resolve the config. Prints the wall-clock time (ns) at which
set-up ended; the caller subtracts the time it spawned the process.

usage: python3 setup_probe.py SRC_DIR CSV [SECTION.KEY=VALUE ...]
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import aplt.cli  # noqa: E402  (the import is part of what is measured)
from aplt import config, data  # noqa: E402

data.load_csv(sys.argv[2])
config.resolve(None, sys.argv[3:])
print(time.time_ns())
