"""A symbol carries its phase space (``SymbolSpec.space``), so no function takes one beside it."""

import importlib
import inspect
import pkgutil

import toeplab

#: The benchmark calls ``probe_points(f, space)``; it rejects a space that is not ``f``'s.
EXEMPT = {"toeplab.harness.ExperimentConfig.probe_points"}

#: Unannotated parameter names that hold a symbol or a quantization matrix.
SYMBOL_NAMES = {"f", "g", "T"}


def _functions():
    """``(qualified name, function)`` of every function and method defined in a toeplab module."""
    for info in pkgutil.iter_modules(toeplab.__path__):
        module = importlib.import_module(f"toeplab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def _holds_a_symbol(param) -> bool:
    annotation = str(param.annotation)
    return (param.name in SYMBOL_NAMES or "SymbolSpec" in annotation
            or "ToeplitzMatrix" in annotation)


def test_no_space_beside_a_symbol():
    walked, offenders = set(), []
    for name, fn in _functions():
        walked.add(name)
        params = inspect.signature(fn).parameters.values()
        if (any(_holds_a_symbol(p) for p in params) and any("space" in p.name for p in params)
                and name not in EXEMPT):
            offenders.append(name)
    assert EXEMPT <= walked
    assert offenders == []
