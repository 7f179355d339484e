"""Time what every ``curvedflats run`` pays before the grid sweep.

Run in a fresh interpreter with the raw config as its JSON argument.  Covers
``import curvedflats.cli``, ``RunConfig(raw)`` and ``seed_initial_state`` and
prints ``{"setup_s": ..., "seed_attempts": ...}``.
"""

import json
import sys
import time
from pathlib import Path


def main():
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from curvedflats.cli import RunConfig, seed_initial_state

    config = RunConfig(json.loads(sys.argv[1]))
    _state, attempts = seed_initial_state(config)
    t1 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0, "seed_attempts": attempts}))


if __name__ == "__main__":
    main()
