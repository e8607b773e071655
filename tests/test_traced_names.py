"""The benchmark tracer (perfbench/tracer.py) wraps comdyn's entry points by
name and reads some of their arguments by position. A rename or a reordered
parameter must fail here, not only under a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import comdyn.cli  # noqa: F401  (imports every traced module)
from comdyn import classical, oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """perfbench/tracer.py loaded by path, without registering it."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    targets = [target for names, _ in _tracer().LAYERS.values() for target in names]
    assert targets
    for target in targets:
        module_name, attr = target.lstrip("*").split(":")
        module = importlib.import_module(f"comdyn.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), target
        else:
            assert callable(getattr(module, attr, None)), target


def test_counted_parameters_keep_their_positions():
    def parameter(fn, index):
        return list(inspect.signature(fn).parameters)[index]

    # the point counter reads args[1] or the keyword grid / taus, the step
    # counter args[3] or the keyword steps
    assert parameter(classical.kolmogorov_check_markov, 1) == "grid"
    assert parameter(classical.kolmogorov_check_nonmarkov, 1) == "taus"
    assert parameter(oracle.ordered_exp, 3) == "steps"
