"""The package namespace is the documented API, and the README's example runs."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

import psdfit
import psdfit.cli
import psdfit.imagedemo
import psdfit.io
import psdfit.solver

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_resolves_and_is_documented():
    assert len(set(psdfit.__all__)) == len(psdfit.__all__)
    for name in psdfit.__all__:
        assert getattr(psdfit, name) is not None
        assert re.search(rf"\b{re.escape(name)}\b", README), f"{name} not in README"


def test_names_perfbench_calls_stay_in_place():
    # perfbench's set-up calls these through the package, and it wraps the
    # solve that the CLI and the image demo look up in their own modules, and
    # the PGM reader and writer that the image demo looks up in its own
    for name in ("read_problem", "read_pgm", "image_to_truth", "observation_instance"):
        assert name in psdfit.__all__
    assert psdfit.cli.solve is psdfit.solver.solve
    assert psdfit.imagedemo.solve is psdfit.solver.solve
    assert psdfit.read_pgm is psdfit.io.read_pgm is psdfit.imagedemo.read_pgm
    assert psdfit.imagedemo.write_pgm is psdfit.io.write_pgm
    # and the demo's writers, the demo itself as the CLI looks it up, and the
    # steps of the demo that it times one by one
    assert psdfit.imagedemo.write_trace is psdfit.io.write_trace
    assert psdfit.imagedemo.write_matrix is psdfit.io.write_matrix
    assert psdfit.cli.image_demo is psdfit.imagedemo.image_demo
    for name in ("image_to_truth", "observation_instance", "summarize_restoration"):
        assert callable(vars(psdfit.imagedemo)[name])


def test_readme_first_example_runs():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.termination_reason is psdfit.TerminationReason.GRADIENT_TOLERANCE
    assert out.getvalue().splitlines()[0] == "TerminationReason.GRADIENT_TOLERANCE"
    # the trace holds the start and one record per iteration, and its last
    # record is exactly the public evaluation at Y_final
    assert len(result.trace) == result.iterations + 1
    assert result.trace[-1].index == result.iterations
    at, last = psdfit.evaluate(namespace["instance"], result.Y_final), result.trace[-1]
    assert (at.f, math.sqrt(at.gg), at.residual) == (last.f_value, last.grad_norm, last.residual)


INSTANCE = psdfit.generate_instance(4, 1, m=2, seed=0)
# each entry point's calls with a given seed; solve's with and without a Y0
SEEDED = {
    "solve": (
        lambda seed: psdfit.solve(INSTANCE, seed=seed),
        lambda seed: psdfit.solve(INSTANCE, np.ones((4, 1)), seed=seed),
    ),
    "generate_instance": (lambda seed: psdfit.generate_instance(4, 1, m=2, seed=seed),),
    "observation_instance": (
        lambda seed: psdfit.observation_instance(np.eye(4), 2, 1, seed),
    ),
}


@pytest.mark.parametrize("seed", [None, True, -1, 2.5])
@pytest.mark.parametrize("entry", list(SEEDED))
def test_every_seed_is_an_integer_of_at_least_0(entry, seed):
    # None would draw OS entropy, so two identical calls would differ
    message = f"^seed={re.escape(repr(seed))} is not an integer of at least 0$"
    for call in SEEDED[entry]:
        with pytest.raises(ValueError, match=message):
            call(seed)
