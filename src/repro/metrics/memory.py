"""Peak resident-set measurement for the sharded kernel's workers.

Linux exposes a process's RSS high-water mark as ``VmHWM`` in
``/proc/self/status``, and writing ``"5"`` to ``/proc/self/clear_refs``
resets it — so a run can be bracketed by
:func:`reset_peak_rss` / :func:`peak_rss_bytes` to report its *own*
peak footprint rather than the process's lifetime peak.  Where either
file is unavailable (non-Linux, restricted ``/proc``) the fallback is
``getrusage`` ``ru_maxrss``, which cannot be reset — the figure is then
a lifetime upper bound, signalled by :func:`reset_peak_rss` returning
False.

``tracemalloc`` is deliberately not used here: it only sees Python
allocations (missing interpreter overhead, and numpy's buffers where a
``"vector"`` engine has loaded numpy) and slows the measured run down.
"""

from __future__ import annotations

import resource


def reset_peak_rss() -> bool:
    """Reset the process's RSS high-water mark; True if it worked."""
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
        return True
    except OSError:
        return False


def peak_rss_bytes() -> int:
    """Peak RSS in bytes since the last successful reset (or ever)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    # ru_maxrss is kilobytes on Linux; lifetime peak, not resettable.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
