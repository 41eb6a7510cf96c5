"""Every name the benchmark's tracer spans resolves in the package.

``nsbench/spans.py`` wraps each of its ``TARGETS`` by (module, attribute) when
a run is traced, so a moved or renamed function would crash only a traced
run.  This reads the list from that file as it stands and resolves each name
the way the tracer does.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "nsbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("nsbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [target[:2] for target in spans.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("module, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_each_spanned_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        target = vars(getattr(owner, cls_name))[attr]
    else:
        target = getattr(owner, attr)
    assert callable(target)
