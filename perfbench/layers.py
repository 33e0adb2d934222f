"""Per-layer metrics: from the spans of a traced run, plus a convnet
micro-run of the public ``forward`` and ``loss_and_gradient``.

Unless named otherwise, a ``*_ms``/``*_s`` metric of one function is its
mean span duration per call; ``<layer>.calls``, ``<layer>.self_ms``,
counts and bytes are totals per traced round. A metric whose function is
not called in a workload reads 0.
"""

import collections
import math
import statistics
import time

from spans import LAYERS, self_times

# (metric, unit); the order in which they are printed.
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS if layer != "cli"]
    + [
        ("synth.pass_ms", "ms"),
        ("passlog.write_ms", "ms"),
        ("passlog.read_ms", "ms"),
        ("passlog.bytes_written", "bytes"),
        ("passlog.bytes_read", "bytes"),
        ("features.frames_ms", "ms"),
        ("features.windows_ms", "ms"),
        ("features.windows", "count"),
        ("triad.eval_ms", "ms"),
        ("triad.evals", "count"),
        ("triad.solved_ratio", "ratio"),
        ("convnet.train_s", "s"),
        ("convnet.epochs", "count"),
        ("convnet.epoch_ms", "ms"),
        ("convnet.divergences", "count"),
        ("convnet.forward_ms", "ms"),
        ("convnet.grad_ms", "ms"),
        ("convnet.step_rest_ms", "ms"),
        ("convnet.predict_ms", "ms"),
        ("convnet.load_ms", "ms"),
        ("convnet.save_ms", "ms"),
        ("harness.cell_s", "s"),
        ("harness.report_ms", "ms"),
        ("harness.cpu_s", "s"),
        ("harness.parallel_efficiency", "ratio"),
        ("harness.timeseries_ms", "ms"),
        ("harness.triad_report_ms", "ms"),
        ("cli.self_ms", "ms"),  # median per invocation, not per round
        ("trace.overhead_s", "s"),
        ("check.identical_artifacts", "count"),
        ("check.artifacts", "count"),
    ]
)

# Functions whose mean span per call is reported: metric -> (span, scale).
_PER_CALL = {
    "synth.pass_ms": ("synth.synth_pass", 1e3),
    "passlog.write_ms": ("passlog.write_passlog", 1e3),
    "passlog.read_ms": ("passlog.read_passlog", 1e3),
    "features.frames_ms": ("features.build_frames", 1e3),
    "features.windows_ms": ("features.build_windows", 1e3),
    "triad.eval_ms": ("triad.triad_pass_eval", 1e3),
    "convnet.train_s": ("convnet.train", 1.0),
    "convnet.predict_ms": ("convnet.predict_pass", 1e3),
    "convnet.load_ms": ("convnet.load_model", 1e3),
    "convnet.save_ms": ("convnet.save_model", 1e3),
    "harness.cell_s": ("harness.run_case", 1.0),
    "harness.report_ms": ("harness.write_matrix_reports", 1e3),
    "harness.timeseries_ms": ("harness.timeseries_rows", 1e3),
    "harness.triad_report_ms": ("harness.triad_baseline_report", 1e3),
}

# Micro-run size: a fixed 32-window batch; per-batch time from a short
# training run over the whole dataset.
MICRO_CASE = "C1f"
MICRO_WINDOW = 5
MICRO_REPS = 200
MICRO_EPOCHS = 4
MICRO_TRAIN_REPS = 3


def span_metrics(tracer, rounds):
    """Metrics from the spans of ``rounds`` traced rounds."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    own = self_times(start, end, parent)
    calls = collections.Counter()
    total = collections.Counter()  # summed span duration per function
    layer_self = collections.Counter()
    cli_self = collections.Counter()  # invocation -> cli self time
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        layer = name.split(".", 1)[0]
        calls[name] += 1
        total[name] += end[i] - start[i]
        layer_self[layer] += own[i]
        if layer == "cli":
            cli_self[tracer.invocation[i]] += own[i]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(c for n, c in calls.items()
                                  if n.startswith(layer + ".")) / rounds
        if layer != "cli":
            m[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / rounds
    for metric, (name, scale) in _PER_CALL.items():
        m[metric] = scale * total[name] / calls[name] if calls[name] else 0.0
    c = tracer.counters
    m["passlog.bytes_written"] = c["passlog.bytes_written"] / rounds
    m["passlog.bytes_read"] = c["passlog.bytes_read"] / rounds
    m["features.windows"] = c["features.windows"] / rounds
    m["triad.evals"] = calls["triad.triad_pass_eval"] / rounds
    steps = c["triad.solved"] + c["triad.skipped"]
    m["triad.solved_ratio"] = c["triad.solved"] / steps if steps else 0.0
    m["convnet.epochs"] = c["convnet.epochs"] / rounds
    m["convnet.divergences"] = c["convnet.divergences"] / rounds
    m["convnet.epoch_ms"] = (1e3 * total["convnet.train"] / c["convnet.epochs"]
                             if c["convnet.epochs"] else 0.0)
    m["cli.self_ms"] = 1e3 * statistics.median(cli_self.values()) if cli_self else 0.0
    m["_cell_s_sum"] = total["harness.run_case"] / rounds
    return m


def _median_call_s(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def convnet_micro(passes):
    """forward, loss_and_gradient and the rest of a training step, in ms.

    ``step_rest_ms`` is derived: time per training batch (a short
    ``train`` run divided by its batches) minus ``grad_ms``. It is the
    Adam update, batch slicing and dropout-mask share, plus the per-epoch
    full-set loss spread over the epoch's batches.
    """
    import numpy as np
    from attlab import cases, convnet, features, passlog

    logs = [passlog.read_passlog(p) for p in passes[:4]]
    case = cases.case_spec(MICRO_CASE)
    scale = features.gyro_scale_from_passes(logs)
    ds = features.concat_windows([
        features.build_windows(features.build_frames(log, gyro_scale=scale),
                               features.attitude_labels(log), MICRO_WINDOW, case)
        for log in logs])
    nc = convnet.NetConfig(n=MICRO_WINDOW, channels=case.channel_count, seed=1)
    params = convnet.init_params(nc)
    tc = convnet.TrainConfig(max_epochs=MICRO_EPOCHS, seed=1001)
    X, Y = ds.X[:tc.batch_size], ds.Y[:tc.batch_size]
    keep = 1.0 - nc.dropout
    mask = (np.random.default_rng(0).random((len(X), nc.widths[2])) < keep) / keep

    forward_s = _median_call_s(lambda: convnet.forward(params, X, nc), MICRO_REPS)
    grad_s = _median_call_s(
        lambda: convnet.loss_and_gradient(params, X, Y, nc, dropout_mask=mask),
        MICRO_REPS)
    batches = MICRO_EPOCHS * math.ceil(len(ds) / tc.batch_size)
    convnet.train(ds, nc, tc)  # warm-up: the first training run is slower
    batch_s = _median_call_s(lambda: convnet.train(ds, nc, tc), MICRO_TRAIN_REPS) / batches
    return {"convnet.forward_ms": 1e3 * forward_s,
            "convnet.grad_ms": 1e3 * grad_s,
            "convnet.step_rest_ms": 1e3 * (batch_s - grad_s)}
