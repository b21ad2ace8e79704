"""CPU and peak-RSS accounting of a process tree, read from ``/proc``.

The server process and every process below it (pool children, including
respawned ones, and multiprocessing's resource tracker) are found by parent
pid on each sample.  A process that exits keeps the CPU time and peak RSS of
its last sample, so sample often enough that exits lose little.
"""

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat(pid):
    """``(ppid, utime + stime ticks)`` of one process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    # The command name may contain spaces: fields resume after its ')'.
    fields = raw[raw.rindex(b")") + 2:].split()
    return int(fields[1]), int(fields[11]) + int(fields[12])


def _peak_rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ProcessTree:
    """Cumulative CPU seconds and summed peak RSS of ``root_pid``'s tree."""

    def __init__(self, root_pid):
        self.root_pid = int(root_pid)
        self._cpu_ticks = {}      # pid -> utime + stime at its last sample
        self._peak_kb = {}        # pid -> VmHWM at its last sample

    def _members(self):
        parents = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _stat(int(entry))
                if stat is not None:
                    parents[int(entry)] = stat
        members, frontier = [], [self.root_pid]
        while frontier:
            pid = frontier.pop()
            if pid in parents:
                members.append((pid, parents[pid][1]))
                frontier.extend(child for child, (ppid, _) in parents.items()
                                if ppid == pid)
        return members

    def sample(self):
        for pid, ticks in self._members():
            self._cpu_ticks[pid] = ticks
            peak = _peak_rss_kb(pid)
            if peak:
                self._peak_kb[pid] = max(peak, self._peak_kb.get(pid, 0))
        return self

    @property
    def cpu_seconds(self):
        return sum(self._cpu_ticks.values()) / _TICKS

    @property
    def peak_rss_mb(self):
        return sum(self._peak_kb.values()) / 1024.0

    @property
    def pids(self):
        return sorted(self._cpu_ticks)
