"""Orphan guard: forked workers must not outlive a SIGKILLed driver.

``daemon=True`` only reaps children on a clean driver exit; a driver
killed outright leaves its workers blocked on their task queues unless
they notice the driver is gone.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.faults

# The driver writes its worker pids to a file, not to a pipe: orphans
# holding a pipe open would keep the test waiting on them.
DRIVER = """
import os, sys, time
family, out = sys.argv[1], sys.argv[2]
if family == "parallel":
    from repro.exec import ParallelExecutor
    pool = ParallelExecutor(2)
    pids = pool.worker_pids()
else:
    from repro.ygm.backend_mp import MultiprocessingBackend
    pool = MultiprocessingBackend(2)
    pids = [w.pid for w in pool._workers]
with open(out + ".tmp", "w") as f:
    f.write(" ".join(map(str, pids)))
os.rename(out + ".tmp", out)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Whether *pid* runs (a zombie awaiting its reaper counts as gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return "\nState:\tZ" not in status


def _wait_for(predicate, timeout: float) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("family", ["parallel", "ygm-mp"])
def test_workers_exit_after_driver_sigkill(tmp_path, family):
    out = tmp_path / "pids"
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    driver = subprocess.Popen(
        [sys.executable, "-c", DRIVER, family, str(out)],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    pids: list[int] = []
    try:
        assert _wait_for(out.exists, 30.0), "driver never reported its pool"
        pids = [int(p) for p in out.read_text().split()]
        assert len(pids) == 2 and all(_alive(p) for p in pids)
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=10)
        assert _wait_for(lambda: not any(_alive(p) for p in pids), 5.0), (
            f"workers outlived their driver: "
            f"{[p for p in pids if _alive(p)]}"
        )
    finally:
        driver.kill()
        driver.wait(timeout=10)
        for pid in filter(_alive, pids):  # a failing run's orphans
            os.kill(pid, signal.SIGKILL)
