"""Run one op as a shell-style pipeline of processes under a time limit.

All stages share one new process group.  When the limit strikes, the
whole group is killed, so a hung ``bounds`` cannot outlive its ``gen``
or the other way round.  Every stage is reaped with ``os.wait4``, which
also gives its peak resident set size.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class RunResult:
    wall: float           # launch to the last stage's exit, seconds
    codes: tuple          # exit status per stage; negative = killed by signal
    timed_out: bool
    kill_time: float | None
    peak_rss_mb: float    # largest max-RSS over the stages, MiB

    @property
    def code(self) -> int:
        """Status of the first stage that did not exit 0, else of the last."""
        return next((c for c in self.codes if c != 0), self.codes[-1])


def run_pipeline(stages: list[list[str]], stdout_path: str, stderr_path: str,
                 env: dict, limit: float, cwd: str) -> RunResult:
    state = {"timed_out": False, "kill_time": None}
    lock = threading.Lock()
    procs: list[subprocess.Popen] = []

    def kill_group() -> None:
        with lock:
            try:
                os.killpg(procs[0].pid, signal.SIGKILL)
            except ProcessLookupError:  # every stage already reaped
                return
            state["timed_out"] = True
            state["kill_time"] = time.perf_counter()

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        try:
            for i, argv in enumerate(stages):
                last = i == len(stages) - 1
                procs.append(subprocess.Popen(
                    argv, cwd=cwd, env=env,
                    stdin=procs[-1].stdout if procs else subprocess.DEVNULL,
                    stdout=out if last else subprocess.PIPE, stderr=err,
                    process_group=procs[0].pid if procs else 0,
                ))
                if i:
                    procs[-2].stdout.close()  # the next stage owns the read end
        finally:
            # reap whatever started, even after a failed launch; the timer
            # bounds the wait
            timer = threading.Timer(limit, kill_group)
            timer.start()
            codes, rss = [], []
            try:
                for p in procs:
                    _, status, usage = os.wait4(p.pid, 0)
                    p.returncode = os.waitstatus_to_exitcode(status)
                    codes.append(p.returncode)
                    rss.append(usage.ru_maxrss / 1024.0)  # KiB on Linux
            except BaseException:
                # interrupted: leave no stage running or unreaped
                kill_group()
                for p in procs:
                    if p.returncode is None:
                        os.waitpid(p.pid, 0)
                        p.returncode = -signal.SIGKILL
                raise
            finally:
                timer.cancel()
                timer.join()
        end = time.perf_counter()
    return RunResult(end - start, tuple(codes), state["timed_out"],
                     state["kill_time"], max(rss))
