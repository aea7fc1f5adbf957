"""A thread-safe metrics registry with Prometheus text exposition.

Three instrument kinds, mirroring the Prometheus data model:

- :class:`Counter` — monotonically increasing totals (optionally labeled);
- :class:`Gauge` — point-in-time values, settable directly or backed by a
  callback evaluated at scrape time (queue depth, cache entry counts);
- :class:`Histogram` — bucketed observations plus streaming quantile
  estimation (the P² algorithm: O(1) memory and time per observation, no
  sample retention), for latency distributions.

A :class:`MetricsRegistry` owns one namespace of instruments and renders
them all as the Prometheus text exposition format (version 0.0.4), which
``GET /api/v1/metrics`` serves.  Registration is idempotent — asking for an
existing name returns the existing instrument — so several components
(scheduler, cache, engine) can share one registry without coordination.
There is no "metrics off" mode: every platform owns one registry and every
instrument is live.
"""

import math
import threading
from collections import OrderedDict

#: Default histogram buckets (seconds): sub-millisecond to tens of seconds.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Quantiles every histogram estimates online.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def buckets_up_to(max_seconds, base=DEFAULT_BUCKETS):
    """Extend the default bucket ladder geometrically to cover ``max_seconds``.

    ``DEFAULT_BUCKETS`` tops out at 10 s, which under-resolves queries that
    run up to a statement timeout of, say, 60 s — everything lands in +Inf.
    This returns the default ladder plus 10-25-50-style decades until the
    last bound is >= ``max_seconds``; the query runtime calls it with its
    statement timeout, so bucket resolution follows the timeout.
    """
    buckets = list(base)
    steps = (1.0, 2.5, 5.0)
    decade = 10.0
    while buckets[-1] < max_seconds:
        for step in steps:
            bound = decade * step
            if bound > buckets[-1]:
                buckets.append(bound)
                if bound >= max_seconds:
                    break
        decade *= 10.0
    return tuple(buckets)


def _format_value(value):
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return "%d" % int(as_float)
    return repr(as_float)


def _escape_label(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _render_labels(labels):
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, _escape_label(value))
        for key, value in sorted(labels.items())
    )
    return "{%s}" % inner


class P2Quantile(object):
    """Streaming quantile estimation via the P² algorithm (Jain & Chlamtac).

    Keeps five markers whose heights approximate the target quantile with
    O(1) state and O(1) work per observation — no sample is ever retained,
    so a histogram can sit on the per-query hot path.
    """

    __slots__ = ("q", "_count", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, q):
        self.q = q
        self._count = 0
        self._heights = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value):
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            heights.append(value)
            heights.sort()
            return
        # Locate the cell and bump marker positions above it.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        pos = self._pos
        for index in range(cell + 1, 5):
            pos[index] += 1.0
        for index in range(5):
            self._desired[index] += self._inc[index]
        # Adjust the three interior markers toward their desired positions.
        for index in (1, 2, 3):
            delta = self._desired[index] - pos[index]
            if (delta >= 1.0 and pos[index + 1] - pos[index] > 1.0) or (
                delta <= -1.0 and pos[index - 1] - pos[index] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                pos[index] += step

    def _parabolic(self, i, step):
        heights, pos = self._heights, self._pos
        return heights[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (heights[i + 1] - heights[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (heights[i] - heights[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i, step):
        heights, pos = self._heights, self._pos
        j = i + int(step)
        return heights[i] + step * (heights[j] - heights[i]) / (pos[j] - pos[i])

    def value(self):
        if not self._heights:
            return 0.0
        if self._count <= 5:
            # Exact while the sample is tiny.
            rank = max(0, min(len(self._heights) - 1,
                              int(math.ceil(self.q * len(self._heights))) - 1))
            return self._heights[rank]
        return self._heights[2]

    # -- persistence (the Query Store checkpoints its estimators) ---------------

    def to_state(self):
        """JSON-safe marker state; :meth:`from_state` round-trips exactly."""
        return {
            "q": self.q,
            "count": self._count,
            "heights": list(self._heights),
            "pos": list(self._pos),
            "desired": list(self._desired),
        }

    @classmethod
    def from_state(cls, state):
        estimator = cls(state["q"])
        estimator._count = state["count"]
        estimator._heights = list(state["heights"])
        estimator._pos = list(state["pos"])
        estimator._desired = list(state["desired"])
        return estimator


class _Instrument(object):
    """Base: name, help text and a lock shared by all samples."""

    kind = "untyped"

    def __init__(self, name, help_text=""):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def samples(self):
        """Yield ``(series_name, labels_dict, value)`` triples."""
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing total, optionally labeled.

    ``counter.inc()`` bumps the unlabeled series; ``counter.labels(k=v)``
    returns a child bound to one label combination (children are cached, so
    hot paths can keep a reference and pay one dict hit + one add).
    """

    kind = "counter"

    def __init__(self, name, help_text=""):
        super(Counter, self).__init__(name, help_text)
        self._values = {}  # label-items tuple -> float

    def inc(self, amount=1.0):
        self.labels().inc(amount)

    def labels(self, **labels):
        return _BoundCounter(self, tuple(sorted(labels.items())))

    def value(self, **labels):
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._values.get(key, 0.0)

    def _add(self, key, amount):
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def samples(self):
        with self._lock:
            items = list(self._values.items())
        if not items:
            items = [((), 0.0)]
        return [(self.name, dict(key), value) for key, value in items]


class _BoundCounter(object):
    __slots__ = ("_counter", "_key")

    def __init__(self, counter, key):
        self._counter = counter
        self._key = key

    def inc(self, amount=1.0):
        self._counter._add(self._key, amount)


class Gauge(_Instrument):
    """A point-in-time value: set directly or computed at scrape time."""

    kind = "gauge"

    def __init__(self, name, help_text="", fn=None):
        super(Gauge, self).__init__(name, help_text)
        self._value = 0.0
        self._fn = fn

    def set(self, value):
        with self._lock:
            self._value = float(value)

    def inc(self, amount=1.0):
        with self._lock:
            self._value += amount

    def dec(self, amount=1.0):
        self.inc(-amount)

    def set_function(self, fn):
        """Back this gauge with a callable evaluated at scrape time."""
        self._fn = fn

    def value(self):
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return 0.0  # a scrape must never take the server down
        with self._lock:
            return self._value

    def samples(self):
        return [(self.name, {}, self.value())]


class Histogram(_Instrument):
    """Bucketed observations + online quantiles.

    ``observe`` is O(buckets) for the cumulative counts (a dozen
    comparisons) and O(1) for each P² estimator — no sample retention, so
    it is safe on the per-query hot path.
    """

    kind = "histogram"

    def __init__(self, name, help_text="", buckets=None,
                 quantiles=DEFAULT_QUANTILES):
        super(Histogram, self).__init__(name, help_text)
        self._bounds = tuple(sorted(buckets if buckets is not None
                                    else DEFAULT_BUCKETS))
        self._bucket_counts = [0] * (len(self._bounds) + 1)  # +Inf last
        self._sum = 0.0
        self._count = 0
        self._estimators = OrderedDict(
            (q, P2Quantile(q)) for q in quantiles
        )

    def observe(self, value):
        value = float(value)
        with self._lock:
            index = 0
            for bound in self._bounds:
                if value <= bound:
                    break
                index += 1
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
            for estimator in self._estimators.values():
                estimator.observe(value)

    @property
    def count(self):
        with self._lock:
            return self._count

    @property
    def sum(self):
        with self._lock:
            return self._sum

    def quantile(self, q):
        """The streaming estimate for quantile ``q`` (must be configured)."""
        with self._lock:
            estimator = self._estimators.get(q)
            if estimator is None:
                raise KeyError("histogram %s does not track q=%s" % (self.name, q))
            return estimator.value()

    def quantiles(self):
        with self._lock:
            return {q: est.value() for q, est in self._estimators.items()}

    def to_dict(self):
        with self._lock:
            payload = {
                "count": self._count,
                "sum": round(self._sum, 6),
                "mean": round(self._sum / self._count, 6) if self._count else 0.0,
            }
            for q, estimator in self._estimators.items():
                payload["p%g" % (q * 100)] = round(estimator.value(), 6)
        return payload

    def samples(self):
        with self._lock:
            counts = list(self._bucket_counts)
            total_sum, total_count = self._sum, self._count
        out = []
        cumulative = 0
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            out.append((self.name + "_bucket", {"le": _format_value(bound)},
                        cumulative))
        out.append((self.name + "_bucket", {"le": "+Inf"}, total_count))
        out.append((self.name + "_sum", {}, total_sum))
        out.append((self.name + "_count", {}, total_count))
        return out


class _CallbackCounter(_Instrument):
    """A counter whose value is read from elsewhere at scrape time.

    Used to expose counters another component already maintains (the result
    cache's :class:`~repro.runtime.cache.CacheStats`) without double
    accounting: the registry holds only the reader.
    """

    kind = "counter"

    def __init__(self, name, help_text, fn):
        super(_CallbackCounter, self).__init__(name, help_text)
        self._fn = fn

    def value(self):
        try:
            return float(self._fn())
        except Exception:
            return 0.0

    def samples(self):
        return [(self.name, {}, self.value())]


class MetricsRegistry(object):
    """One namespace of instruments; renders Prometheus text exposition."""

    def __init__(self, default_buckets=None):
        self._instruments = OrderedDict()  # name -> instrument
        self._lock = threading.Lock()
        #: Bucket bounds used when a histogram is registered without
        #: explicit ``buckets``.  Settable at construction or later (the
        #: query runtime sets it from its statement timeout) — but only
        #: *before* the first registration of a histogram takes effect for
        #: it, because registration is idempotent by name.
        self.default_buckets = (tuple(default_buckets)
                                if default_buckets is not None else None)

    # -- registration (idempotent by name) --------------------------------------

    def _get_or_create(self, name, factory, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is not None:
                if instrument.kind != kind:
                    raise ValueError(
                        "metric %r already registered as %s"
                        % (name, instrument.kind)
                    )
                return instrument
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name, help_text=""):
        return self._get_or_create(
            name, lambda: Counter(name, help_text), "counter")

    def gauge(self, name, help_text=""):
        return self._get_or_create(name, lambda: Gauge(name, help_text), "gauge")

    def histogram(self, name, help_text="", buckets=None,
                  quantiles=DEFAULT_QUANTILES):
        if buckets is None:
            buckets = self.default_buckets
        return self._get_or_create(
            name,
            lambda: Histogram(name, help_text, buckets=buckets,
                              quantiles=quantiles),
            "histogram",
        )

    def gauge_callback(self, name, help_text, fn):
        """A gauge computed by ``fn()`` at scrape time (replaces existing)."""
        gauge = Gauge(name, help_text, fn=fn)
        with self._lock:
            self._instruments[name] = gauge
        return gauge

    def counter_callback(self, name, help_text, fn):
        """A counter read from ``fn()`` at scrape time (replaces existing)."""
        counter = _CallbackCounter(name, help_text, fn)
        with self._lock:
            self._instruments[name] = counter
        return counter

    def get(self, name):
        with self._lock:
            return self._instruments.get(name)

    def unregister(self, name):
        with self._lock:
            self._instruments.pop(name, None)

    def names(self):
        with self._lock:
            return list(self._instruments)

    # -- exposition ---------------------------------------------------------------

    def render_prometheus(self):
        """The full registry as Prometheus text exposition (version 0.0.4)."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines = []
        for instrument in instruments:
            if instrument.help:
                lines.append("# HELP %s %s" % (
                    instrument.name,
                    instrument.help.replace("\\", "\\\\").replace("\n", "\\n"),
                ))
            lines.append("# TYPE %s %s" % (instrument.name, instrument.kind))
            for series, labels, value in instrument.samples():
                lines.append("%s%s %s" % (
                    series, _render_labels(labels), _format_value(value)))
        return "\n".join(lines) + "\n"

    def snapshot(self):
        """Flat ``{series-with-labels: value}`` dict, for deltas in benches."""
        with self._lock:
            instruments = list(self._instruments.values())
        flat = {}
        for instrument in instruments:
            for series, labels, value in instrument.samples():
                flat["%s%s" % (series, _render_labels(labels))] = value
        return flat
