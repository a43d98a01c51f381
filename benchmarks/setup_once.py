"""One set-up of a workload in a fresh process, with the host's speed sampled.

    python3 benchmarks/setup_once.py WORKLOAD SEED WORKDIR [--tiny]

Sampling starts before ``ammlab`` is imported, so it covers the imports
and the writing of the inputs. The sampler's seconds and the host's
slowdown go to ``WORKDIR/setup_host.json`` for ``run.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from hostspeed import HostSpeed

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    with HostSpeed() as host:
        import workloads

        workloads.setup(name, seed, workdir, tiny="--tiny" in sys.argv[4:])
    (workdir / "setup_host.json").write_text(json.dumps({"spent_s": host.spent, "slowdown": host.slowdown()}))
