"""Readers for Linux ``/proc``: CPU time of a process tree, host steal, peak RSS.

CPU time is read per process from ``/proc/<pid>/stat`` rather than from
``getrusage``: ``RUSAGE_CHILDREN`` only covers children that have exited
and been waited for, so the live workers of a process pool would be
missed. Summing ``utime + stime + cutime + cstime`` over every live
process of a tree counts each tick once: a live process contributes its
own ticks, and a child that has exited and been reaped has moved its
ticks into its parent's ``cutime``/``cstime``.
"""

from __future__ import annotations

import os

CLK_TCK = os.sysconf("SC_CLK_TCK")


def parse_stat(text: str) -> dict:
    """Fields of one ``/proc/<pid>/stat`` line that the benchmark uses.

    The command name (field 2) is parenthesised and may itself hold
    spaces or parentheses, so fields are counted from the last ``)``.
    """
    head, _, rest = text.rpartition(")")
    fields = rest.split()
    # fields[0] is field 3 (state); field N of proc(5) is fields[N - 3]
    return {
        "pid": int(head.split("(", 1)[0]),
        "state": fields[0],
        "ppid": int(fields[1]),
        "pgrp": int(fields[2]),
        "utime": int(fields[11]),
        "stime": int(fields[12]),
        "cutime": int(fields[13]),
        "cstime": int(fields[14]),
    }


def read_all_stats(proc: str = "/proc") -> dict:
    """``pid -> parse_stat(...)`` for every process visible right now."""
    out = {}
    for name in os.listdir(proc):
        if not name.isdigit():
            continue
        try:
            with open(f"{proc}/{name}/stat") as fh:
                out[int(name)] = parse_stat(fh.read())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listdir and open
    return out


def tree_pids(root: int, stats: dict) -> list:
    """``root`` and all its live descendants, root first."""
    children: dict = {}
    for pid, st in stats.items():
        children.setdefault(st["ppid"], []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            out.append(pid)
            todo.extend(children.get(pid, ()))
    return out


def tree_cpu_ticks(root: int, proc: str = "/proc") -> int:
    """User+system clock ticks of ``root``'s process tree, reaped children included."""
    stats = read_all_stats(proc)
    return sum(
        stats[p]["utime"] + stats[p]["stime"] + stats[p]["cutime"] + stats[p]["cstime"]
        for p in tree_pids(root, stats)
    )


def parse_steal(text: str) -> int:
    """Steal ticks summed over all CPUs, from the ``cpu`` line of ``/proc/stat``."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            # user nice system idle iowait irq softirq steal ...
            return int(fields[8]) if len(fields) > 8 else 0
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def steal_ticks(path: str = "/proc/stat") -> int:
    with open(path) as fh:
        return parse_steal(fh.read())


def parse_hwm_kib(text: str) -> int:
    """``VmHWM`` (peak resident set) in KiB from a ``/proc/<pid>/status`` text."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0  # kernel threads and zombies have no memory lines


def reset_peak_rss(root: int, proc: str = "/proc") -> None:
    """Reset ``VmHWM`` to the current resident set for ``root``'s live tree.

    Writing ``5`` to ``clear_refs`` touches nothing but the peak counter,
    so a later :func:`tree_peak_rss_mib` covers only what ran after this.
    """
    for pid in tree_pids(root, read_all_stats(proc)):
        try:
            with open(f"{proc}/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except (FileNotFoundError, ProcessLookupError):
            continue


def tree_peak_rss_mib(root: int, proc: str = "/proc") -> float:
    """Sum of the peak resident sets of ``root``'s live process tree, MiB.

    Pages a forked worker shares with its parent count in both, so this
    is an upper bound on the tree's peak footprint; it needs no sampler
    thread and does not depend on sampling luck.
    """
    total = 0
    for pid in tree_pids(root, read_all_stats(proc)):
        try:
            with open(f"{proc}/{pid}/status") as fh:
                total += parse_hwm_kib(fh.read())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total / 1024.0
