"""Set-up probe: import darkshelf, validate one config, print the monotonic clock.

    python3 bench/setup_probe.py <src dir> <config.json>

``run.py`` starts this in a fresh interpreter and subtracts its own
``time.monotonic()`` taken just before the spawn; both read the same
system-wide clock, so the difference is interpreter start-up plus the
imports plus ``harness.validate``.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from darkshelf import harness  # noqa: E402

harness.validate(harness.load_config(sys.argv[2]))
print(time.monotonic())
