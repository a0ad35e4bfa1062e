"""Run one ``repro`` command in-process with every layer's entry points timed.

    python3 perfbench/tracer.py SPANS_JSON <repro argv...>

The program is not changed: an import hook wraps each entry point listed in
``layers.TARGETS`` right after its defining module executes, so every
``from ... import`` site picks up the wrapper.  Spans (name, start, end,
parent) are kept in memory and written to ``SPANS_JSON`` when the command
returns.  ``os.fsync`` calls and the bytes of files published with
``os.replace`` are counted against the enclosing span's layer.  Before the
command runs, ``calibrate`` measures the wrapper's own cost per call, so
that ``layers.main_totals`` can move it out of the layers.

Pool workers are forked from the traced process and inherit the wrappers;
each worker appends its spans, one JSON line each, to
``SPANS_JSON.workers.jsonl``, because its memory is lost when it exits.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib.machinery  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402

perf_counter = time.perf_counter


class Tracer:
    """An in-memory span stack; forked workers write spans to a file."""

    def __init__(self, worker_path: str):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent]
        self.stack: list[list] = []  # [name, start, child_s, index]
        self.counts: dict[str, float] = {}
        self.worker_path = worker_path
        self.worker_fd = None

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, -1]
        if self.worker_fd is None:
            name_id = self.name_ids.get(name)
            if name_id is None:
                name_id = self.name_ids[name] = len(self.names)
                self.names.append(name)
            parent = self.stack[-1][3] if self.stack else -1
            frame[3] = len(self.spans)
            self.spans.append([name_id, frame[1], 0.0, parent])
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, counts: dict | None = None) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        if self.stack:
            self.stack[-1][2] += duration
        if self.worker_fd is None:
            self.spans[frame[3]][2] = end
            if counts:
                self.count(counts)
        else:
            line = json.dumps([frame[0], frame[1], end, duration - frame[2], counts or {}])
            os.write(self.worker_fd, (line + "\n").encode())

    def count(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def count_io(self, what: str, value: float) -> None:
        layer = layers.layer_of(self.stack[-1][0]) if self.stack else "other"
        self.count({f"{layer}.{what}": value})

    def become_worker(self) -> None:
        """After fork: drop the parent's open spans, report to the file."""
        self.stack.clear()
        self.spans.clear()
        self.worker_fd = os.open(self.worker_path,
                                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)


TRACER: Tracer


def _wrap_call(fn, target: layers.Target):
    name, count = target.span, target.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = TRACER.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            TRACER.exit(frame)
            raise
        TRACER.exit(frame, count(args, kwargs, result) if count else None)
        return result

    return wrapper


def calibrate(rounds: int = 7, calls: int = 2000) -> tuple[float, float]:
    """The wrapper's own cost per call, ``(inside, outside)`` its span.

    Times a wrapped no-op against the bare no-op.  ``inside`` is what the
    wrapper adds between the span's two clock readings, so it lands in the
    callee's self time; ``outside`` is the rest, which lands in the
    caller's.  Medians over ``rounds``; the spans are thrown away.
    """
    global TRACER
    real = TRACER

    def noop():
        return None

    wrapped = _wrap_call(noop, layers.Target("", "noop", layers.TRACE_LAYER))
    inside, outside = [], []
    try:
        for _ in range(rounds):
            TRACER = Tracer("")
            start = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            extra = perf_counter() - start - bare
            in_spans = sum(end - begin for _, begin, end, _ in TRACER.spans) - bare
            inside.append(in_spans / calls)
            outside.append((extra - in_spans) / calls)
    finally:
        TRACER = real
    return statistics.median(inside), statistics.median(outside)


def _wrap_generator(fn, target: layers.Target):
    """Time each resumption of a generator; count its yields and extent."""
    name = target.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        scheduler = args[0]
        gen = fn(*args, **kwargs)
        first = None
        try:
            while True:
                frame = TRACER.enter(name)
                if first is None:
                    first = frame[1]
                try:
                    item = next(gen)
                except StopIteration:
                    extent = perf_counter() - first
                    TRACER.exit(frame, {
                        "scheduler.retries": scheduler.retries,
                        "scheduler.worker_s": scheduler.executor.workers * extent,
                    })
                    return
                except BaseException:
                    TRACER.exit(frame)
                    raise
                TRACER.exit(frame, {"scheduler.jobs": 1})
                yield item
        finally:
            gen.close()

    return wrapper


_BY_MODULE: dict[str, list] = {}
for _target in layers.TARGETS:
    _BY_MODULE.setdefault(_target.module, []).append(_target)


def patch_module(module) -> None:
    for target in _BY_MODULE.get(module.__name__, ()):
        owner, attr = module, target.attr
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_call
        wrapper = wrap(fn, target)
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)


class PatchingFinder:
    """Finds target modules through the normal path finder, then patches
    them right after they execute."""

    def find_spec(self, name, path=None, target=None):
        if name not in _BY_MODULE:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            frame = TRACER.enter("trace:patch")
            patch_module(module)
            TRACER.exit(frame)

        spec.loader.exec_module = exec_and_patch
        return spec


def install_io_hooks() -> None:
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        TRACER.count_io("fsyncs", 1)
        return fsync(fd)

    def traced_replace(src, dst, *args, **kwargs):
        try:
            size = os.stat(src).st_size
        except OSError:
            size = 0
        TRACER.count_io("bytes", size)
        TRACER.count_io("files", 1)
        return replace(src, dst, *args, **kwargs)

    os.fsync, os.replace = traced_fsync, traced_replace


def main() -> int:
    global TRACER
    spans_path, argv = sys.argv[1], sys.argv[2:]
    TRACER = Tracer(spans_path + ".workers.jsonl")
    sys.meta_path.insert(0, PatchingFinder())
    install_io_hooks()
    os.register_at_fork(after_in_child=TRACER.become_worker)
    call_cost = calibrate()
    setup = TRACER.enter("trace:setup")
    setup[1] = T0
    TRACER.spans[setup[3]][1] = T0
    TRACER.exit(setup)

    before = len(sys.modules)
    frame = TRACER.enter(layers.IMPORT_SPAN)
    import repro.experiments.runner as runner
    TRACER.exit(frame)
    TRACER.count({"runner.modules": len(sys.modules) - before})

    try:
        code = runner.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    ended = perf_counter()
    sys.stdout.flush()

    payload = json.dumps({
        "t0": T0, "t_end": ended, "code": code, "call_cost": call_cost,
        "names": TRACER.names,
        "spans": TRACER.spans, "counts": TRACER.counts,
    })
    with open(spans_path, "w") as handle:
        handle.write(payload)
        handle.write("\n" + json.dumps({"write_s": perf_counter() - ended}))
    return code


if __name__ == "__main__":
    sys.exit(main())
