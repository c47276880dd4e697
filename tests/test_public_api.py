import dataclasses
import importlib
import typing

import pytest

MODULES = ("crossdiff", "crossdiff.attractor", "crossdiff.diagnostics",
           "crossdiff.grid", "crossdiff.model", "crossdiff.solver")


def public_dataclasses():
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                yield pytest.param(obj, id=f"{name}.{attr}")


@pytest.mark.parametrize("cls", public_dataclasses())
def test_annotations_resolve(cls):
    # every name an annotation uses is importable from the class's module
    typing.get_type_hints(cls)
