"""In-memory span tracer that wraps the package's public functions from
outside the package.

`Tracer.install(targets)` replaces each target function, in every
`mmekit` module namespace that holds it, with a wrapper that records a
span (id, parent id, job id, name, start, end).  Calls made inside the
package go through those module globals, so nested calls are traced
too.  `uninstall()` puts the originals back.  Nothing in `src/mmekit`
changes.

Self time is a span's duration minus the durations of its direct child
spans, accumulated as each span closes.  Every span is aggregated;
only the first `max_spans` are kept for the spans file, so a run with
millions of calls stays small in memory.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.job = None  # id of the job being run; spans of one job share it
        self.clock = time.perf_counter
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [id, child_s]
        self._patched: list[tuple] = []

    def wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            clock = self.clock
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((sid, parent, self.job, name, t0, t1))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(out, args)
            return out

        return traced

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, on_result or None).

        A module-level function is replaced in every loaded `mmekit`
        module that binds it; a method is replaced on its class.
        """
        modules = [m for k, m in sys.modules.items()
                   if k == "mmekit" or k.startswith("mmekit.")]
        for owner, attr, name, hook in targets:
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, fn))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, job, name, start, end
        (seconds on the tracer clock)."""
        with open(path, "w") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Self time per span id from span records (id, parent, job, name,
    start, end): its duration minus its direct children's durations."""
    child = {}
    for sid, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0.0) for sid, _, _, _, t0, t1 in spans}
