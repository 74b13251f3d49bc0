"""Start-up hook for the queue workers of the benchmark's panels.

Every queue panel puts this directory on ``PYTHONPATH`` of the ``repro
worker`` processes the queue backend spawns, and names a report directory in
``PERFBENCH_WORKER_REPORTS``.  Python imports ``sitecustomize`` at start-up,
so the worker reports its peak memory and, with ``PERFBENCH_WORKER_TRACE=1``,
its layer spans (see ``perfbench/probes.py``) without any change to the
program.  Without the variable this module does nothing.
"""

import os
import sys
import time

_started = time.perf_counter()
_report_dir = os.environ.get("PERFBENCH_WORKER_REPORTS")
if _report_dir:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import probes

    probes.install_worker(_report_dir, _started,
                          os.environ.get("PERFBENCH_WORKER_TRACE") == "1")
