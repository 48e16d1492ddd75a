"""Run one gametrace CLI command with spans around each layer's public calls.

Usage: PERFBENCH_SPANS=out.json python3 perfbench/traced_cli.py <gametrace args>

The program's files are not changed: each public function listed in
``TRACED`` is replaced, under every name a ``gametrace`` module looks it up
by, with a wrapper that records a span (name, start, end, parent, operation
id). Spans stay in memory and are written as JSON to ``PERFBENCH_SPANS``
when the command ends. ``read_events`` yields one row at a time, so its
``next()`` calls are summed into one duration instead of one span per row.
Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so they
share one time base with the parent process that started this one.
"""

import functools
import json
import os
import sys
import time

_clock = time.perf_counter

# (module, attribute) of each traced public callable. Dotted attributes are
# methods, patched on the class so every instance sees the wrapper.
TRACED = (
    ("synth", "generate"),
    ("events", "read_labels"),
    ("aggregation", "StreamingAggregator.update_all"),
    ("aggregation", "StreamingAggregator.finalize"),
    ("aggregation", "save_feature_matrix"),
    ("aggregation", "load_feature_matrix"),
    ("dataset", "join"),
    ("dataset", "fit_preprocessor"),
    ("dataset", "Preprocessor.transform"),
    ("dataset", "split_train_test"),
    ("dataset", "kfold"),
    ("selection", "select"),
    ("evaluation", "cross_validate"),
    ("evaluation", "KnnClassifier.fit"),
    ("evaluation", "MlpClassifier.fit"),
    ("evaluation", "ForestClassifier.fit"),
    ("knn", "knn_fit"),
    ("knn", "knn_predict"),
    ("mlp", "mlp_train"),
    ("mlp", "MlpModel.predict"),
    ("mlp", "adam_step"),
    ("forest", "forest_fit"),
    ("forest", "tree_fit"),
    ("forest", "forest_predict"),
    ("model_io", "save_model"),
    ("model_io", "load_model"),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._open: list[list] = []  # [span index, seconds covered by children]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, tag, fn, args, kwargs):
        parent = self._open[-1][0] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._open.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            self.spans[index] = {
                "name": name, "tag": tag, "start": start, "end": end,
                "parent": parent, "op": self.op, "self": end - start - frame[1],
            }

    def timed_iter(self, name: str, iterator):
        """Yield from ``iterator``, summing the time spent inside next()."""
        while True:
            start = _clock()
            try:
                item = next(iterator)
            except StopIteration:
                self._charge(name, _clock() - start)
                return
            self._charge(name, _clock() - start)
            yield item

    def _charge(self, name: str, seconds: float) -> None:
        self.count(name, seconds)
        if self._open:
            self._open[-1][1] += seconds

    def dump(self, path: str) -> None:
        with open(path, "w") as sink:
            json.dump({"op": self.op, "spans": self.spans, "counts": self.counts}, sink)


def _tree_sizes(trees, leaf_type) -> tuple[int, int]:
    nodes = leaves = 0
    stack = list(trees)
    while stack:
        node = stack.pop()
        nodes += 1
        if isinstance(node, leaf_type):
            leaves += 1
        else:
            stack.append(node.left)
            stack.append(node.right)
    return nodes, leaves


def _after(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Counters read off a traced call's arguments and result."""
    if name == "synth.generate":
        tracer.count("synth.events_written", result.events_written)
        tracer.count("synth.bytes_written", sum(
            os.path.getsize(p) for p in (result.events_path, result.labels_path, result.manifest_path)
        ))
    elif name == "aggregation.StreamingAggregator.finalize":
        tracer.count("aggregation.groups", len(result.rows))
    elif name == "dataset.join":
        tracer.counts["dataset.rows"] = max(tracer.counts.get("dataset.rows", 0), len(result[0]))
    elif name == "knn.knn_predict":
        model, queries = args[0], args[1]
        rows = len(queries)
        tracer.count("knn.queries", rows)
        tracer.count("knn.distance_evals", rows * model.x.shape[0])
    elif name == "forest.forest_fit":
        import gametrace.forest

        nodes, leaves = _tree_sizes(result.trees, gametrace.forest.Leaf)
        tracer.count("forest.nodes", nodes)
        tracer.count("forest.leaves", leaves)
    elif name == "model_io.save_model":
        path = args[0] if args else kwargs["path"]
        tracer.count("model_io.container_bytes", os.path.getsize(path))


def _span_wrapper(tracer: Tracer, name: str, fn):
    tag_model = name == "evaluation.cross_validate"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = kwargs.get("model_name") if tag_model else None
        result = tracer.call(name, tag, fn, args, kwargs)
        _after(tracer, name, args, kwargs, result)
        return result

    return wrapper


def _read_events_wrapper(tracer: Tracer, fn, report_type):
    @functools.wraps(fn)
    def wrapper(source, *args, report=None, **kwargs):
        report = report_type() if report is None else report
        yield from tracer.timed_iter("events.read_s", fn(source, *args, report=report, **kwargs))
        tracer.count("events.rows_read", report.rows_read)
        tracer.count("events.events_emitted", report.events_emitted)
        tracer.count("events.rows_skipped", report.rows_skipped)
        tracer.count("events.cell_errors_kept", len(report.cell_errors))

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every traced callable under all names gametrace modules use."""
    import gametrace.events

    replacements = {}
    for module_name, attr in TRACED:
        module = sys.modules[f"gametrace.{module_name}"]
        owner, _, method = attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        original = getattr(target, method)
        wrapper = _span_wrapper(tracer, f"{module_name}.{attr}", original)
        if owner:
            setattr(target, method, wrapper)
        else:
            replacements[id(original)] = (original, wrapper)
    original = gametrace.events.read_events
    replacements[id(original)] = (
        original, _read_events_wrapper(tracer, original, gametrace.events.IngestReport)
    )
    for name, module in list(sys.modules.items()):
        if name != "gametrace" and not name.startswith("gametrace."):
            continue
        for attr, value in list(vars(module).items()):
            found = replacements.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attr, found[1])


def main(argv: list[str]) -> int:
    tracer = Tracer(os.environ.get("PERFBENCH_OP", ""))
    out = os.environ["PERFBENCH_SPANS"]
    start = _clock()
    import gametrace.cli

    end = _clock()
    tracer.spans.append({
        "name": "cli.import", "tag": None, "start": start, "end": end,
        "parent": None, "op": tracer.op, "self": end - start,
    })
    install(tracer)
    try:
        return tracer.call("cli.main", argv[0] if argv else None, gametrace.cli.main, (argv,), {})
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
