"""In-memory spans around the benchmark's calls into hdwear.

A span records (name, start, end, parent, run id) plus counts taken at the
same boundary.  Stage spans ("train", "infer", ...) and the host-speed
probe spans (see hostspeed.py) are always kept; call spans
("datapipe.load_csv", ...) only when the tracer is detailed, so the
untraced run pays for a handful of clock reads per repetition.  The probe
runs only between stages, never between the calls inside one, so the calls
of a stage run back to back as they would in a user's program.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, detail: bool, probe=None):
        self.detail = detail
        self.probe = probe  # run before every stage, in a span of its own
        self.run_id = ""
        self.spans: list[Span] = []
        self.calls = 0  # call boundaries entered, traced or not
        self._stack: list[int] = []
        self._discard = Span("", 0.0, 0.0, None, "")

    def stage(self, name: str):
        """A top-level span, after a host-speed probe."""
        self.sample()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        sp = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.run_id)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def call(self, name: str):
        """A span around one public hdwear call; yields the span so the
        caller can attach counts (a throwaway one when not detailed)."""
        self.calls += 1
        if self.detail:
            return self._span(name)
        self._discard.counts = {}
        return nullcontext(self._discard)

    def sample(self) -> None:
        """Time the host-speed probe in a span of its own."""
        if self.probe is not None:
            with self._span("probe"):
                self.probe()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap: calls are sequential)."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, covered)]

    def write(self, path) -> None:
        rows = [
            asdict(sp) | {"self": st} for sp, st in zip(self.spans, self.self_times())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh, indent=None)
