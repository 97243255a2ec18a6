"""Time-to-tolerance benchmark for psdfit, end to end and by layer.

    python3 perfbench/run.py [--workload tall-pairs|many-pairs|image-demo|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each operation is one ``psdfit solve`` or ``psdfit demo-image`` command,
run in this process through ``psdfit.cli.main`` on files the benchmark
generated from --seed, and checked against computations made apart from
the program (checks.py).  Operations repeat until --seconds have passed;
times are medians over them.  With --trace 1 every other operation runs
with spans around the program's public functions (tracer.py) and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of output is one JSON object.  See README.md.
"""

import os
import sys

# One BLAS thread for this process: the plain single-threaded baseline, and
# the only setting under which iteration counts repeat exactly.  It must be
# set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from tracer import LAYER_PROBES, SOLVE_PROBES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_us": "us",
    "iterations": "count",
    "run_s": "s",
    "solve_peak_mib": "MiB",
}
SETUP_SECONDS = 0.5  # set-up repeats, at least 7 times, until this much has been spent
SETUP_BLOCK_S = 0.05  # set-up repeats between two speed probes


def import_program():
    """Import psdfit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "psdfit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'psdfit'}")
    sys.path.insert(0, str(src))
    import psdfit.cli

    if Path(psdfit.__file__).resolve().parent != (src / "psdfit").resolve():
        raise SystemExit(f"perfbench: psdfit imported from {psdfit.__file__}")
    return psdfit


def stack_pairs(instance):
    return (np.array([A for A, _ in instance.pairs]),
            np.array([B for _, B in instance.pairs]))


class Workload:
    """One workload's inputs, operations and checks within one run."""

    def __init__(self, psdfit, name, seed):
        self.psdfit = psdfit
        self.dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inp = inputs.WORKLOADS[name](seed, self.dir)
        self.out_dir = self.dir / "out"
        self.out_dir.mkdir()
        self.tracer = Tracer()
        self.iterations = set()
        self.attempted = 0
        self.failed = 0
        self.checks = checks.Checks()
        self.raw = {}  # metric -> (raw median, sample count), for the printed lines

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup_seconds(self):
        """Input files on disk to a validated ProblemInstance, through the public API."""
        p, inp = self.psdfit, self.inp
        begin = perf_counter()
        if inp.image is None:
            p.read_problem(inp.path)
        else:
            truth = p.image_to_truth(p.read_pgm(inp.path))
            p.observation_instance(truth, inputs.IMAGE_PAIRS, inp.k, inputs.DEMO_SEED)
        return perf_counter() - begin

    def setup_samples(self):
        """Set-up seconds, raw and at reference speed, in blocks between speed probes."""
        raw, ref = [], []
        while len(raw) < 7 or sum(raw) < SETUP_SECONDS:
            before, block, begin = speed.probe(), [], perf_counter()
            while not block or perf_counter() - begin < SETUP_BLOCK_S:
                block.append(self.setup_seconds())
            factor = speed.scale(before, speed.probe())
            raw += block
            ref += [t * factor for t in block]
        return raw, ref

    def operation(self, probes, traced=False):
        """Run and check one command with the given probes.

        Returns None if the command failed, else its raw times, the factor
        "scale" that converts them to reference seconds, and, when traced,
        its per-layer metrics.
        """
        got, searches = {}, []

        def keep_solve(args, kwargs, result):
            got.update(instance=args[0] if args else kwargs["instance"], result=result)

        def keep_search(args, kwargs, result):
            Y, D = (args[1], args[2]) if len(args) > 2 else (kwargs["Y"], kwargs["D"])
            searches.append((np.array(Y), np.array(D), result.t_star, result.phi_at_t))

        keep = {"solver.solve": keep_solve}
        if traced:
            keep["linesearch.exact_step"] = keep_search
        argv = self.inp.cli_args(self.out_dir)
        first = len(self.tracer.start)
        self.attempted += 1
        stdout = io.StringIO()
        before = speed.probe()
        self.tracer.install(probes, keep)
        try:
            with contextlib.redirect_stdout(stdout):
                begin = perf_counter()
                code = self.psdfit.cli.main(argv)
                run_s = perf_counter() - begin
        except Exception as exc:  # the program crashed: a failed operation
            print(f"perfbench: {' '.join(argv)}: {exc!r}", file=sys.stderr)
            code = None
        finally:
            self.tracer.remove()
            self.tracer.op_id += 1
        factor = speed.scale(before, speed.probe())
        if code != 0 or "result" not in got:
            self.failed += 1
            print(f"perfbench: operation failed (exit {code})", file=sys.stderr)
            return None
        last = len(self.tracer.start)
        solve = next(i for i in range(first, last)
                     if self.tracer.names[self.tracer.name_id[i]] == "solver.solve")
        result, instance = got["result"], got["instance"]
        As, Bs = (self.inp.As, self.inp.Bs) if self.inp.image is None else stack_pairs(instance)
        try:
            self.check(result, As, Bs, stdout.getvalue())
        except (OSError, KeyError, ValueError, IndexError) as exc:
            self.checks.expect(False, f"{self.inp.workload}: unreadable outputs: {exc!r}")
        self.iterations.add(result.iterations)
        op = {"run_s": run_s, "solve_s": self.tracer.end[solve] - self.tracer.start[solve],
              "scale": factor, "iterations": result.iterations}
        if traced:
            self.checks.line_searches(As, Bs, searches)
            op["layers"], solve_s, self_sum = layers.per_op(
                self.tracer, first, last, scale=factor, iterations=result.iterations,
                restarts=sum(1 for r in result.trace[1:] if r.beta == 0.0),
                sizes=[B.shape[0] for B in Bs], n=Bs.shape[2], k=self.inp.k,
                problem_bytes=self.inp.path.stat().st_size if self.inp.image is None else 0,
                bytes_written=sum(p.stat().st_size for p in self.out_dir.iterdir()))
            self.checks.expect(self_sum <= solve_s * (1 + 1e-9),
                               f"self times {self_sum} exceed the traced solve {solve_s}")
        return op

    def check(self, res, As, Bs, stdout):
        c, inp = self.checks, self.inp
        what = inp.workload
        lines = dict(ln.split(" ", 1) for ln in stdout.splitlines() if " " in ln)
        c.expect(lines.get("termination") == "gradient-tolerance",
                 f"{what}: termination {lines.get('termination')!r}")
        if inp.image is None:
            fields, X = checks.read_keyed(self.out_dir / "solution.txt")
            c.expect(fields["termination"] == "gradient-tolerance",
                     f"{what}: solution file says {fields['termination']}")
        else:
            X = checks.read_matrix(self.out_dir / "restored_X.txt")
            fields = dict(ln.split(" ", 1) for ln in
                          (self.out_dir / "report.txt").read_text().splitlines())
            c.expect(fields == {k: v for k, v in lines.items() if k in fields},
                     f"{what}: report.txt differs from the printed report")
            self.check_image(As, Bs, X, float(fields["relative_error"]))
        f_reported = float(fields["f"])
        c.expect(int(fields["iterations"]) == res.iterations,
                 f"{what}: file says {fields['iterations']} iterations, solve returned "
                 f"{res.iterations}")
        c.psd_rank(X, inp.k, what)
        Y = np.asarray(res.Y_final)
        c.expect(np.linalg.norm(X - Y @ Y.T) <= 1e-14 * np.linalg.norm(X),
                 f"{what}: written X is not Y Y^T of the returned Y")
        tau = checks.rounding_tau(As, Bs, X)
        c.objective_at(As, Bs, X, f_reported, tau, what)
        grad_reported = c.trace_file(self.out_dir / "trace.csv", res.iterations, f_reported,
                                     tau, what)
        c.gradient(As, Bs, Y, inp.epsilon, grad_reported, what)
        if inp.planted is not None:
            ZZ = inp.planted @ inp.planted.T
            err = float(np.linalg.norm(X - ZZ) / np.linalg.norm(ZZ))
            c.note("planted_err", err)
            c.expect(err <= checks.PLANTED_TOL, f"{what}: ||X - ZZ^T||/||ZZ^T|| = {err:.3g}")

    def check_image(self, As, Bs, X, rel_reported):
        c, what = self.checks, self.inp.workload
        G = self.inp.image.astype(np.float64) / 255.0
        S = G @ G.T
        truth = S / np.linalg.norm(S)
        c.expect(np.allclose(As, Bs @ truth @ Bs.transpose(0, 2, 1), rtol=0, atol=1e-12),
                 f"{what}: observations are not B_i X_true B_i^T")
        rel = float(np.linalg.norm(X - truth) / np.linalg.norm(truth))
        eig = np.linalg.eigvalsh(truth)
        best = math.sqrt(float(np.sum(eig[: -self.inp.k] ** 2)))  # ||truth|| = 1
        c.note("ey_ratio", rel / best)
        c.expect(abs(rel - rel_reported) <= 1e-9 * rel,
                 f"{what}: relative error {rel!r} recomputed, {rel_reported!r} reported")
        c.expect(best * (1 - 1e-9) <= rel <= checks.EY_FACTOR * best,
                 f"{what}: relative error {rel:.4g} vs Eckart-Young {best:.4g}")

    def peak_mib(self):
        """tracemalloc peak of one solve, in a separate untimed operation."""
        peaks = []

        def measured(solve):
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return solve(*args, **kwargs)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return wrapper

        saved = [(self.psdfit.cli, "solve"), (self.psdfit.imagedemo, "solve")]
        originals = [getattr(mod, attr) for mod, attr in saved]
        for (mod, attr), fn in zip(saved, originals):
            setattr(mod, attr, measured(fn))
        gc.collect()  # so that collections inside the solve fall where they did last run
        try:
            self.operation(SOLVE_PROBES)
        finally:
            for (mod, attr), fn in zip(saved, originals):
                setattr(mod, attr, fn)
        return peaks[0] / 2**20 if peaks else math.nan


def timed_loop(wl, seconds, traced):
    """Operations until `seconds` have passed; with traced, alternately plain and traced."""
    plain, full = [], []
    deadline = perf_counter() + seconds
    while True:
        op = wl.operation(SOLVE_PROBES)
        if op:
            plain.append(op)
        if traced:
            op = wl.operation(LAYER_PROBES, traced=True)
            if op:
                full.append(op)
        if perf_counter() >= deadline:
            return plain, full


def median_ref(ops, key):
    """Median over operations of a time in reference seconds, and of the raw time."""
    if not ops:
        return math.nan, math.nan
    return (statistics.median(op[key] * op["scale"] for op in ops),
            statistics.median(op[key] for op in ops))


def measure(psdfit, name, seed, seconds, traced):
    wl = Workload(psdfit, name, seed)
    try:
        speed.probe()  # warm-up
        setup_raw, setup = wl.setup_samples()
        wl.operation(SOLVE_PROBES)  # warm-up
        plain, full = timed_loop(wl, seconds, traced)
        if traced:
            metrics = {k: statistics.median(op["layers"][k] for op in full) if full else math.nan
                       for k in layers.PER_LAYER if k != "trace.overhead"}
            metrics["trace.overhead"] = (median_ref(full, "solve_s")[0]
                                         / median_ref(plain, "solve_s")[0])
            WORK.mkdir(exist_ok=True)
            wl.tracer.save(WORK / f"spans-{name}.npz")
        else:
            peak = wl.peak_mib()
            iterations = plain[0]["iterations"] if plain else math.nan
            solve_s, solve_raw = median_ref(plain, "solve_s")
            run_s, run_raw = median_ref(plain, "run_s")
            wl.raw = {"setup_s": (statistics.median(setup_raw), len(setup)),
                      "solve_s": (solve_raw, len(plain)), "run_s": (run_raw, len(plain)),
                      "iter_us": (solve_raw / iterations * 1e6, len(plain))}
            metrics = {
                "setup_s": statistics.median(setup),
                "solve_s": solve_s,
                "iter_us": solve_s / iterations * 1e6,
                "iterations": iterations,
                "run_s": run_s,
                "solve_peak_mib": peak,
            }
        wl.checks.expect(len(wl.iterations) <= 1,
                         f"{name}: iteration counts differ between identical runs: "
                         f"{sorted(wl.iterations)}")
        units = END_TO_END if not traced else layers.PER_LAYER
        return wl, {k: (metrics[k], units[k]) for k in units}
    finally:
        wl.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    psdfit = import_program()

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl, metrics = measure(psdfit, name, args.seed, args.seconds, bool(args.trace))
        correct = not wl.checks.failures
        print(f"{name} seed={args.seed}: attempted {wl.attempted}, failed {wl.failed}, "
              f"correct {correct}")
        for failure in wl.checks.failures[:10]:
            print(f"  FAILED CHECK {failure}")
        notes = ", ".join(f"{k} {v:.3g}" for k, v in wl.checks.notes.items())
        print(f"  checks: {notes}")
        if wl.tracer.absent:
            print(f"  absent: {', '.join(wl.tracer.absent)}")
        for key, (value, unit) in metrics.items():
            extra = ""
            if key in wl.raw:
                extra = f"   (median of {wl.raw[key][1]}; raw {wl.raw[key][0]:.6g})"
            print(f"  {key:40s} {value:14.6g} {unit}{extra}")
        prefix = f"{name}." if len(names) > 1 else ""
        total["correct"] = total["correct"] and correct
        total["attempted"] += wl.attempted
        total["failed"] += wl.failed
        total["metrics"].update({prefix + k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                                 for k, (v, u) in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
