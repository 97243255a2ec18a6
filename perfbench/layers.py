"""Per-layer metrics of one traced operation, from its spans.

Every time is self time: a span's duration minus that of its direct child
spans.  Kernel flops and bytes are not measured; they are computed from the
array shapes of each pair (``kernel_model``) and scaled by the call counts.
"""

import numpy as np

from tracer import layer_times

KERNELS = ("residual_sq", "gradient_accum", "quartic_terms")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    **{f"kernels.{fn}.{what}": unit for fn in KERNELS
       for what, unit in (("calls_per_iter_pair", "count"), ("us_per_call", "us"))},
    "kernels.mflop_per_iter": "Mflop-computed",
    "kernels.mbyte_per_iter": "MB-computed",
    "kernels.gflops": "Gflop/s",
    "kernels.share": "ratio",
    "problem.gradient.us_per_call": "us",
    "problem.objective.us_per_call": "us",
    "problem.residual_error.us_per_call": "us",
    "problem.residual_passes_per_iter": "count",
    "linesearch.exact_step.us_per_call": "us",
    "linesearch.quartic_coeffs.us_per_call": "us",
    "linesearch.minimize_quartic.us_per_call": "us",
    "linesearch.cubic_real_roots.us_per_call": "us",
    "solver.step.us_per_iter": "us",
    "solver.fr_beta.us_per_call": "us",
    "solver.solve.self_us_per_iter": "us",
    "solver.restarts": "count",
    "solver.retries": "count",
    "io.read_problem.ms": "ms",
    "io.read_problem.mb_per_s": "MB/s",
    "io.write_trace.ms": "ms",
    "io.write_solution.ms": "ms",
    "io.bytes_written": "B",
    "imagedemo.read_pgm.ms": "ms",
    "imagedemo.observation_instance.ms": "ms",
    "imagedemo.summarize_restoration.ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead": "ratio",
}


def kernel_model(sizes, n, k):
    """Computed flops and compulsory bytes of one call of each kernel, summed over pairs.

    Flops count every multiply and add of the numpy expressions (a product
    of p x q by q x r is 2pqr); bytes count each float64 input read once and
    each output written once, no temporaries.
    """
    flops = dict.fromkeys(KERNELS, 0.0)
    nbytes = dict.fromkeys(KERNELS, 0.0)
    for mi in sizes:
        flops["residual_sq"] += 2 * mi * n * k + 2 * mi * mi * k + 3 * mi * mi
        flops["gradient_accum"] += 4 * mi * n * k + 4 * mi * mi * k + 3 * mi * mi + 2 * n * k
        flops["quartic_terms"] += 4 * mi * n * k + 8 * mi * mi * k + 14 * mi * mi
        shared = mi * mi + mi * n
        nbytes["residual_sq"] += 8 * (shared + n * k)
        nbytes["gradient_accum"] += 8 * (shared + 3 * n * k)
        nbytes["quartic_terms"] += 8 * (shared + 2 * n * k)
    return flops, nbytes


def per_op(tracer, first, last, *, scale, iterations, restarts, sizes, n, k,
           problem_bytes, bytes_written):
    """Per-layer metrics of the traced operation whose spans are first..last.

    Times are raw seconds times scale.  Returns (metrics, solve seconds,
    sum of self times inside the solve).
    """
    times, ids, self_s, parent = layer_times(tracer, first, last, scale)

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_per_call(name, unit=1e6):
        c, _, s = times.get(name, (0, 0.0, 0.0))
        return s / c * unit if c else 0.0

    def self_total(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    m = len(sizes)
    out = {}
    flops, nbytes = kernel_model(sizes, n, k)
    kernel_s = kernel_flops = kernel_bytes = 0.0
    for fn in KERNELS:
        c = calls(f"kernels.{fn}")
        out[f"kernels.{fn}.calls_per_iter_pair"] = c / (iterations * m)
        out[f"kernels.{fn}.us_per_call"] = self_per_call(f"kernels.{fn}")
        kernel_s += self_total(f"kernels.{fn}")
        kernel_flops += c / m * flops[fn]
        kernel_bytes += c / m * nbytes[fn]
    solve_count, solve_s, solve_self = times["solver.solve"]
    out["kernels.mflop_per_iter"] = kernel_flops / iterations / 1e6
    out["kernels.mbyte_per_iter"] = kernel_bytes / iterations / 1e6
    out["kernels.gflops"] = kernel_flops / kernel_s / 1e9 if kernel_s else 0.0
    out["kernels.share"] = kernel_s / solve_s

    for fn in ("gradient", "objective", "residual_error"):
        out[f"problem.{fn}.us_per_call"] = self_per_call(f"problem.{fn}")
    names = np.array(tracer.names + [""])
    parent_name = names[np.where(parent >= first, ids[np.maximum(parent - first, 0)], -1)]
    span_name = names[ids]
    passes = np.isin(span_name, ("problem.objective", "problem.residual_error")) & (
        parent_name == "solver.step")
    out["problem.residual_passes_per_iter"] = int(passes.sum()) / iterations

    for fn in ("exact_step", "quartic_coeffs", "minimize_quartic", "cubic_real_roots"):
        out[f"linesearch.{fn}.us_per_call"] = self_per_call(f"linesearch.{fn}")
    out["solver.step.us_per_iter"] = self_total("solver.step") / iterations * 1e6
    out["solver.fr_beta.us_per_call"] = self_per_call("solver.fr_beta")
    out["solver.solve.self_us_per_iter"] = solve_self / iterations * 1e6
    out["solver.restarts"] = restarts
    out["solver.retries"] = max(calls("solver.step") - iterations, 0)

    read = times.get("io.read_problem", (0, 0.0, 0.0))
    out["io.read_problem.ms"] = read[1] / read[0] * 1e3 if read[0] else 0.0
    out["io.read_problem.mb_per_s"] = problem_bytes * read[0] / read[1] / 1e6 if read[0] else 0.0
    for fn in ("write_trace", "write_solution"):
        out[f"io.{fn}.ms"] = self_per_call(f"io.{fn}", 1e3)
    out["io.bytes_written"] = bytes_written
    for fn in ("read_pgm", "observation_instance", "summarize_restoration"):
        out[f"imagedemo.{fn}.ms"] = self_per_call(f"imagedemo.{fn}", 1e3)
    out["cli.self_ms"] = self_per_call("cli.main", 1e3)

    solve_idx = np.flatnonzero(span_name == "solver.solve")[0] + first
    lo, hi = tracer.start[solve_idx], tracer.end[solve_idx]
    starts, ends = tracer.spans(first, last)[1:3]
    inside = (starts >= lo) & (ends <= hi)
    return out, solve_s / solve_count, float(self_s[inside].sum())
