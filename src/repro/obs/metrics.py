"""Metrics registry: counters, gauges, and latency histograms.

The numeric side of :mod:`repro.obs` — where the tracer answers *when*
something happened, the registry answers *how often* and *how much*:
tasks retried, shm bytes shipped, per-primitive latency distributions.
Every :class:`~repro.obs.tracer.Tracer` owns one registry
(``tracer.metrics``); instrumented layers record into whichever tracer
is active, so a disabled run records nothing and pays nothing (call
sites guard on ``tracer.enabled``).

All instruments are thread-safe: a lone :class:`threading.Lock` per
instrument keeps increments exact when the server's solve threads and
the driver both record at once. Nothing here is wait-free fancy — the
recording rate is per-task / per-primitive, not per-element.
"""

from __future__ import annotations

import bisect
import random
import re
import threading
import zlib

#: Histograms keep at most this many raw observations for percentile
#: estimates. Past the cap the sample becomes a *reservoir* (Vitter's
#: Algorithm R): every observation — first or ten-millionth — is
#: retained with equal probability, so percentiles reflect the whole
#: run. A frozen prefix would bias a long-running (serving) process's
#: p50/p99 toward startup/JIT-era latencies forever.
HISTOGRAM_SAMPLE_CAP = 8192

#: Default latency buckets (seconds) for fixed-bucket histograms —
#: Prometheus-style upper bounds covering sub-ms primitives through
#: multi-second served solves.
DEFAULT_LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _normalize_labels(labels) -> tuple:
    """Sorted ``(key, value)`` string pairs — the canonical label form."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _sample_name(name: str, label_items: tuple) -> str:
    """``name{k="v",...}`` — the snapshot/exposition sample name.

    Unlabeled instruments keep their bare name, so snapshots of code
    that never uses labels are byte-identical to the historical format.
    """
    if not label_items:
        return name
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in label_items)
    return f"{name}{{{inner}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """Monotonically increasing count (tasks run, bytes shipped)."""

    __slots__ = ("name", "labels", "sample_name", "_value", "_lock")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.sample_name = _sample_name(name, _normalize_labels(labels))
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-write-wins scalar (current pool size, live frontier)."""

    __slots__ = ("name", "labels", "sample_name", "_value", "_lock")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.sample_name = _sample_name(name, _normalize_labels(labels))
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Latency/size distribution with O(1) totals and a reservoir sample.

    ``observe`` is cheap (append/replace + running totals); ``summary``
    computes count/total/min/max/mean — always exact — plus p50/p95/p99
    over the retained sample. Below :data:`HISTOGRAM_SAMPLE_CAP` the
    sample is every observation (percentiles exact); past it the sample
    is a uniform reservoir over the *entire* stream (Algorithm R), so a
    long-running process's percentiles track the whole run rather than
    its startup era.

    The reservoir's RNG is a private :class:`random.Random` seeded from
    the instrument name (CRC32 — stable across processes and runs, no
    ``PYTHONHASHSEED`` dependence): identical observation sequences
    yield identical summaries, and nothing here ever touches the global
    RNG streams the solvers' byte-identity invariant rests on.
    """

    __slots__ = (
        "name", "labels", "sample_name", "buckets", "_bucket_counts",
        "_count", "_total", "_min", "_max", "_sample", "_rng", "_lock",
    )

    def __init__(self, name: str, labels: dict | None = None, buckets=None):
        self.name = name
        self.labels = dict(labels or {})
        self.sample_name = _sample_name(name, _normalize_labels(labels))
        #: Optional fixed upper bounds (sorted, seconds or whatever the
        #: unit is). When set, ``observe`` also maintains cumulative
        #: bucket counts — exact, Prometheus-ready — alongside the
        #: reservoir; when ``None`` nothing changes vs. the historical
        #: histogram (and the summary stays byte-compatible).
        self.buckets = tuple(sorted(float(b) for b in buckets)) if buckets else None
        self._bucket_counts = [0] * len(self.buckets) if self.buckets else None
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._sample: list = []
        self._rng = random.Random(zlib.crc32(str(name).encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._bucket_counts is not None:
                # le semantics: value lands in the first bucket whose
                # upper bound is >= value; above all bounds only the
                # implicit +Inf bucket (== _count) sees it.
                i = bisect.bisect_left(self.buckets, value)
                if i < len(self._bucket_counts):
                    self._bucket_counts[i] += 1
            if len(self._sample) < HISTOGRAM_SAMPLE_CAP:
                self._sample.append(value)
            else:
                # Algorithm R: the i-th observation displaces a uniform
                # slot with probability cap/i — every element of the
                # stream is retained equiprobably.
                j = self._rng.randrange(self._count)
                if j < HISTOGRAM_SAMPLE_CAP:
                    self._sample[j] = value

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> "dict | None":
        """Cumulative ``{upper_bound: count}`` (``inf`` bound == count),
        or ``None`` when no fixed buckets were configured."""
        if self.buckets is None:
            return None
        with self._lock:
            per_bucket = list(self._bucket_counts)
            count = self._count
        out, cum = {}, 0
        for bound, n in zip(self.buckets, per_bucket):
            cum += n
            out[bound] = cum
        out[float("inf")] = count
        return out

    def summary(self) -> dict:
        # Snapshot every field inside the lock: reading count/total/
        # min/max after releasing it could pair a sorted sample with
        # totals from later concurrent observes — a torn summary whose
        # mean or max disagrees with its own percentiles.
        with self._lock:
            if not self._count:
                return {"count": 0}
            sample = sorted(self._sample)
            count, total = self._count, self._total
            lo, hi = self._min, self._max
            per_bucket = (
                list(self._bucket_counts)
                if self._bucket_counts is not None
                else None
            )

        def _pct(q: float) -> float:
            return sample[min(int(q * len(sample)), len(sample) - 1)]

        out = {
            "count": count,
            "total": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
            "p50": _pct(0.50),
            "p95": _pct(0.95),
            "p99": _pct(0.99),
        }
        if per_bucket is not None:
            cum, buckets = 0, {}
            for bound, n in zip(self.buckets, per_bucket):
                cum += n
                buckets[repr(bound)] = cum
            buckets["+Inf"] = count
            out["buckets"] = buckets
        return out


class MetricsRegistry:
    """Get-or-create home for named instruments.

    ``registry.counter("tasks_retried").inc()`` — one line at the call
    site, idempotent creation, and a :meth:`snapshot` that serializes
    every instrument for attaching to bench JSON or emitting as trace
    counter events.
    """

    def __init__(self):
        self._instruments: dict = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels=None, **kwargs):
        label_items = _normalize_labels(labels)
        key = (cls.__name__, str(name), label_items)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(str(name), labels=dict(label_items), **kwargs)
                self._instruments[key] = inst
            return inst

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, labels: dict | None = None, buckets=None
    ) -> Histogram:
        """Get-or-create; ``buckets`` applies only on first creation (an
        existing instrument's buckets are never rewired)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def instruments(self) -> list:
        """A stable-order snapshot of every registered instrument."""
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> dict:
        """JSON-ready ``{counters, gauges, histograms}`` view.

        Unlabeled instruments appear under their bare name (the
        historical, byte-compatible format); labeled ones under
        ``name{k="v",...}``. The instrument list is copied under the
        registry lock, so a snapshot taken while another thread is
        registering metrics sees a consistent prefix — never a dict
        mutated mid-iteration.
        """
        instruments = self.instruments()
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for inst in instruments:
            if isinstance(inst, Counter):
                out["counters"][inst.sample_name] = inst.value
            elif isinstance(inst, Gauge):
                out["gauges"][inst.sample_name] = inst.value
            elif isinstance(inst, Histogram):
                out["histograms"][inst.sample_name] = inst.summary()
        return out

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


# -- Prometheus text exposition ------------------------------------------

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name for Prometheus (dots → underscores)."""
    out = _PROM_NAME_RE.sub("_", str(name))
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_labels(labels: dict, extra: "tuple | None" = None) -> str:
    items = [(str(k), str(v)) for k, v in sorted(labels.items())]
    if extra:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + inner + "}"


def _prom_num(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters/gauges map directly; histograms with fixed buckets emit
    ``_bucket{le=...}``/``_sum``/``_count`` series, reservoir-only
    histograms emit a summary (``{quantile=...}`` + ``_sum``/``_count``).
    One ``# TYPE`` line per family, families sorted by name.
    """
    families: dict = {}
    for inst in registry.instruments():
        families.setdefault((_prom_name(inst.name), type(inst).__name__), []).append(
            inst
        )
    lines = []
    for (name, kind), insts in sorted(families.items()):
        if kind == "Counter":
            lines.append(f"# TYPE {name} counter")
            for inst in insts:
                lines.append(f"{name}{_prom_labels(inst.labels)} {_prom_num(inst.value)}")
        elif kind == "Gauge":
            lines.append(f"# TYPE {name} gauge")
            for inst in insts:
                lines.append(f"{name}{_prom_labels(inst.labels)} {_prom_num(inst.value)}")
        else:  # Histogram
            bucketed = any(inst.buckets is not None for inst in insts)
            lines.append(f"# TYPE {name} {'histogram' if bucketed else 'summary'}")
            for inst in insts:
                summary = inst.summary()
                count = summary.get("count", 0)
                total = summary.get("total", 0.0)
                if inst.buckets is not None:
                    for bound, cum in (inst.bucket_counts() or {}).items():
                        le = ("le", _prom_num(bound))
                        lines.append(
                            f"{name}_bucket{_prom_labels(inst.labels, le)} {cum}"
                        )
                else:
                    for q in ("p50", "p95", "p99"):
                        if q in summary:
                            quantile = ("quantile", f"0.{q[1:]}")
                            lines.append(
                                f"{name}{_prom_labels(inst.labels, quantile)} "
                                f"{_prom_num(summary[q])}"
                            )
                lines.append(f"{name}_sum{_prom_labels(inst.labels)} {_prom_num(total)}")
                lines.append(f"{name}_count{_prom_labels(inst.labels)} {count}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> dict:
    """Parse the exposition format back into ``{types, samples}``.

    ``types`` maps family name -> declared type; ``samples`` maps the
    full sample name (labels included, verbatim) -> float value. This
    is the validation half of the round-trip the CI serve leg runs —
    a deliberately small parser, not a full openmetrics implementation.
    """
    types: dict = {}
    samples: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        # sample: name{labels} value  |  name value
        idx = line.rfind(" ")
        if idx < 0:
            raise ValueError(f"prometheus text:{lineno}: no value in {line!r}")
        sample_name, value = line[:idx].strip(), line[idx + 1 :]
        try:
            samples[sample_name] = float(value)
        except ValueError as exc:
            raise ValueError(
                f"prometheus text:{lineno}: bad value {value!r}"
            ) from exc
        base = sample_name.partition("{")[0]
        base_family = re.sub(r"_(bucket|sum|count)$", "", base)
        if base not in types and base_family not in types:
            raise ValueError(
                f"prometheus text:{lineno}: sample {base!r} missing # TYPE"
            )
    return {"types": types, "samples": samples}
