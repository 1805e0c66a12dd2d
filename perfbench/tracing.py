"""Benchmark-side spans around the calls into each layer of the simulator.

Nothing here edits the simulator. For the length of one traced round
:func:`instrumented` replaces the public entry points of each layer
with wrappers that open a span, call the original and close the span,
and puts every original back afterwards. A span records its layer, its
start and end (``perf_counter_ns``) and its parent span; spans stay in
memory and :meth:`Tracer.write` saves them as one JSON file.

A layer's *self time* is the time its spans cover minus the time their
child spans cover, less the tracer's own cost: :func:`span_costs` times
an empty traced call and an empty traced generator resume in-process,
split into the part that lands inside the span and the part that lands
in its parent, and :meth:`Tracer.self_seconds` subtracts both for every
span closed. The raw figures stay in the spans file.

The root span of a round is ``core`` (single-model workloads) or
``experiments`` (the sweep), so time no other layer claims -- the
``des`` event loop and the ``core`` engine -- lands in ``core``.
Service generators (``resources``) are traced per resume: each
``send``/``throw`` into the generator is one span, so the time a
transaction spends *simulated* inside a service costs no host time.

Layers and the entry points wrapped:

==============  ============================================================
``cc``          ConcurrencyControl and CommitProtocol methods
``resources``   ResourceModel service generators, ``charge_attempt``
``workloads``   WorkloadGenerator ``new_transaction``
``obs``         InstrumentationBus ``emit`` (when a subscriber listens),
                TimeSeriesSampler samples
``stats``       MetricsCollector recording/batch methods,
                BatchMeansAnalyzer ``record``
``persistence`` SweepCheckpoint writes and loads
``core``        ``run_simulation`` (and everything no other layer claims)
``experiments`` ``run_sweep`` (root of the sweep workload)
==============  ============================================================
"""

import inspect
import json
import statistics
import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

LAYERS = (
    "core",
    "cc",
    "resources",
    "workloads",
    "obs",
    "stats",
    "experiments",
    "persistence",
)
_INDEX = {name: index for index, name in enumerate(LAYERS)}
#: Span kinds, as offsets into the per-kind, per-layer counters: a
#: wrapped call, or one resume of a wrapped generator.
CALL = 0
RESUME = len(LAYERS)
KINDS = {"call": CALL, "resume": RESUME}


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self):
        self._clock = time.perf_counter_ns
        self._layer = array("b")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        # Open spans: [span id, layer index, start ns, child-covered ns,
        # kind offset].
        self._stack = []
        self.self_ns = [0] * len(LAYERS)
        #: Spans closed, indexed by kind offset + layer.
        self.spans = [0] * (2 * len(LAYERS))
        #: Spans closed, indexed by kind offset + the parent span's layer.
        self.children = [0] * (2 * len(LAYERS))
        #: Entries into a layer from a different layer (nested calls
        #: within one layer are one call).
        self.calls = [0] * len(LAYERS)
        #: Named boundary counters (waits, aborts, dispatched events...).
        self.counts = Counter()
        #: Every SystemModel built while instrumented.
        self.models = []

    def enter(self, layer, kind=CALL):
        """Open a span of ``layer``; True when it enters from another layer."""
        now = self._clock()
        stack = self._stack
        span = len(self._start)
        self._layer.append(layer)
        self._start.append(now)
        self._end.append(now)
        if stack:
            top = stack[-1]
            self._parent.append(top[0])
            outer = top[1] != layer
        else:
            self._parent.append(-1)
            outer = True
        stack.append([span, layer, now, 0, kind])
        return outer

    def exit(self):
        """Close the innermost open span."""
        now = self._clock()
        span, layer, start, child, kind = self._stack.pop()
        duration = now - start
        self._end[span] = now
        self.self_ns[layer] += duration - child
        self.spans[kind + layer] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            self.children[kind + parent[1]] += 1

    @contextmanager
    def span(self, name):
        layer = _INDEX[name]
        if self.enter(layer):
            self.calls[layer] += 1
        try:
            yield
        finally:
            self.exit()

    def raw_self_seconds(self, name):
        """Self time of a layer as the clock read it, tracer cost included."""
        return self.self_ns[_INDEX[name]] / 1e9

    def self_seconds(self, name, costs):
        """Self time of a layer less the tracer's cost (see span_costs)."""
        layer = _INDEX[name]
        overhead = 0.0
        for kind, offset in KINDS.items():
            inside, outside = costs[kind]
            overhead += self.spans[offset + layer] * inside
            overhead += self.children[offset + layer] * outside
        return (self.self_ns[layer] - overhead) / 1e9

    def call_count(self, name):
        return self.calls[_INDEX[name]]

    def write(self, path, costs):
        """Save every span as columns of one JSON document."""
        origin = self._start[0] if self._start else 0
        document = {
            "layers": list(LAYERS),
            "clock": "perf_counter_ns, relative to the first span",
            "layer": self._layer.tolist(),
            "start_ns": [t - origin for t in self._start],
            "end_ns": [t - origin for t in self._end],
            "parent": self._parent.tolist(),
            "raw_self_s": {
                name: self.raw_self_seconds(name) for name in LAYERS
            },
            "self_s": {
                name: self.self_seconds(name, costs) for name in LAYERS
            },
            "span_cost_ns": costs,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


# -- wrappers ----------------------------------------------------------------


def _plain(tracer, layer, function, on_outer=None):
    """Wrap a function: one span per call, ``on_outer(result)`` hook."""
    enter, exit_ = tracer.enter, tracer.exit
    calls = tracer.calls

    def traced(*args, **kwargs):
        outer = enter(layer)
        if outer:
            calls[layer] += 1
        try:
            result = function(*args, **kwargs)
        finally:
            exit_()
        if outer and on_outer is not None:
            on_outer(result)
        return result

    return traced


def _segments(enter, exit_, layer, generator):
    """Drive ``generator`` with one span around each resume."""
    value = None
    error = None
    while True:
        enter(layer, RESUME)
        try:
            if error is None:
                item = generator.send(value)
            else:
                item = generator.throw(error)
        except StopIteration as stop:
            exit_()
            return stop.value
        except BaseException:
            exit_()
            raise
        exit_()
        error = None
        try:
            value = yield item
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:
            value = None
            error = thrown


def _generator(tracer, layer, function):
    """Wrap a generator function: one call, one span per resume."""
    enter, exit_ = tracer.enter, tracer.exit
    calls = tracer.calls

    def traced(*args, **kwargs):
        stack = tracer._stack
        if not stack or stack[-1][1] != layer:
            calls[layer] += 1
        return _segments(enter, exit_, layer, function(*args, **kwargs))

    return traced


def _span_cost(kind, calls):
    """One sample of (ns inside, ns in the parent) per span of ``kind``."""
    parent, child = _INDEX["core"], _INDEX["cc"]

    def noop():
        return None

    def steps():
        for _ in range(calls):
            yield None

    def drive(wrap):
        tracer = Tracer()
        tracer.enter(parent)
        if kind == "call":
            target = _plain(tracer, child, noop) if wrap else noop
            for _ in range(calls):
                target()
        else:
            target = _generator(tracer, child, steps) if wrap else steps
            for _ in target():
                pass
        tracer.exit()
        return tracer

    plain, traced = drive(False), drive(True)
    spans = traced.spans[KINDS[kind] + child]
    return (
        traced.self_ns[child] / spans,
        (traced.self_ns[parent] - plain.self_ns[parent]) / spans,
    )


#: Empty traced calls (or resumes) per calibration sample, and samples.
_CALIBRATION_CALLS = 5000
_CALIBRATION_SAMPLES = 15


def span_costs():
    """Host cost of the tracer per span, by span kind.

    Times ``_CALIBRATION_CALLS`` empty traced calls (and generator
    resumes) against the same loop untraced, ``_CALIBRATION_SAMPLES``
    times with the kinds
    interleaved, and keeps the median sample of each part: the host's
    speed changes from one second to the next, and the median follows
    the mix of speeds a traced round runs at. Returns ``{kind: [ns
    inside the span, ns in the parent span]}``: the first part is clock
    time the span itself covers, the second the wrapper's time around
    the clock reads, which lands in whatever layer made the call.
    """
    samples = {kind: [] for kind in KINDS}
    for _ in range(_CALIBRATION_SAMPLES):
        for kind in KINDS:
            samples[kind].append(_span_cost(kind, _CALIBRATION_CALLS))
    return {
        kind: [statistics.median(s[i] for s in samples[kind]) for i in (0, 1)]
        for kind in KINDS
    }


def _family(base):
    """``base`` and every subclass of it defined so far."""
    seen = [base]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


def _wrap_methods(stack, tracer, base, names, layer_name, hooks=None):
    """Wrap ``names`` wherever ``base`` or a subclass defines them."""
    layer = _INDEX[layer_name]
    hooks = hooks or {}
    for cls in _family(base):
        for name in names:
            function = cls.__dict__.get(name)
            if function is None:
                continue
            if inspect.isgeneratorfunction(function):
                wrapped = _generator(tracer, layer, function)
            else:
                wrapped = _plain(tracer, layer, function, hooks.get(name))
            stack.enter_context(mock.patch.object(cls, name, wrapped))


_CC_METHODS = (
    "begin", "read_request", "write_request", "pre_commit",
    "finalize_commit", "abort", "serial_key", "reader_version_key",
)
_COMMIT_PROTOCOL_METHODS = ("prepare", "decide", "abort")
_RESOURCE_METHODS = (
    "read_access", "write_request_work", "deferred_update",
    "cc_request_work", "cpu_service", "disk_service", "disk_service_at",
    "network_leg", "charge_attempt", "participant_nodes",
)
_STATS_METHODS = (
    "record_commit", "record_restart", "record_block", "record_submit",
    "snapshot", "batch_values",
)
_CHECKPOINT_METHODS = ("start_fresh", "record", "load_into")


@contextmanager
def instrumented(tracer):
    """Install every layer's wrappers for the ``with`` body, then undo them."""
    import repro.cc.blocking as blocking
    import repro.experiments.runner as runner
    from repro.cc.base import CommitProtocol, ConcurrencyControl
    from repro.core.engine import SystemModel
    from repro.core.metrics import MetricsCollector
    from repro.core.workload import WorkloadGenerator
    from repro.experiments.persistence import SweepCheckpoint
    from repro.obs.bus import InstrumentationBus
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.resources.base import ResourceModel
    from repro.stats import BatchMeansAnalyzer

    counts = tracer.counts

    def waited(result):
        if result is not None:
            counts["cc.waits"] += 1

    def counter(name):
        def hook(_result):
            counts[name] += 1
        return hook

    with ExitStack() as stack:

        def patch(owner, name, value):
            stack.enter_context(mock.patch.object(owner, name, value))

        _wrap_methods(
            stack, tracer, ConcurrencyControl, _CC_METHODS, "cc",
            hooks={
                "read_request": waited,
                "write_request": waited,
                "pre_commit": waited,
                "begin": counter("cc.attempts"),
                "finalize_commit": counter("cc.commits"),
                "abort": counter("cc.aborts"),
            },
        )
        _wrap_methods(
            stack, tracer, CommitProtocol, _COMMIT_PROTOCOL_METHODS, "cc"
        )
        _wrap_methods(
            stack, tracer, ResourceModel, _RESOURCE_METHODS, "resources"
        )
        _wrap_methods(
            stack, tracer, WorkloadGenerator, ("new_transaction",),
            "workloads",
            hooks={"new_transaction": counter("workloads.transactions")},
        )
        _wrap_methods(
            stack, tracer, MetricsCollector, _STATS_METHODS, "stats"
        )
        _wrap_methods(
            stack, tracer, BatchMeansAnalyzer, ("record",), "stats"
        )
        _wrap_methods(
            stack, tracer, TimeSeriesSampler, ("_take_sample",), "obs"
        )
        _wrap_methods(
            stack, tracer, SweepCheckpoint, _CHECKPOINT_METHODS,
            "persistence",
        )

        # The bus: only emissions some subscriber listens to are spans;
        # an unobserved kind costs the engine one dict lookup, which a
        # span would inflate many times over.
        emit = InstrumentationBus.emit
        traced_emit = _plain(tracer, _INDEX["obs"], emit)

        def bus_emit(self, kind, **fields):
            if kind in self._handlers:
                counts["obs.events"] += 1
                return traced_emit(self, kind, **fields)
            return emit(self, kind, **fields)

        patch(InstrumentationBus, "emit", bus_emit)

        # Waits-for graph builds: one per deadlock check of blocking.
        build = blocking.build_waits_for

        def build_waits_for(locks):
            counts["cc.deadlock_checks"] += 1
            return build(locks)

        patch(blocking, "build_waits_for", build_waits_for)

        # The sweep's simulations are the core layer under experiments.
        patch(
            runner, "run_simulation",
            _plain(tracer, _INDEX["core"], runner.run_simulation),
        )

        model_init = SystemModel.__init__

        def init(self, *args, **kwargs):
            model_init(self, *args, **kwargs)
            tracer.models.append(self)

        patch(SystemModel, "__init__", init)
        yield tracer


def events_scheduled(model):
    """Events the model's DES kernel has scheduled so far.

    ``Environment._eid`` is the ``__next__`` of an ``itertools.count``
    that numbers every scheduled event; its repr shows the next number.
    """
    text = repr(model.env._eid.__self__)
    return int(text[text.index("(") + 1:text.index(")")])
