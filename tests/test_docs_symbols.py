"""Stale-symbol guard for the prose docs.

Every backticked ``repro.a.b…`` dotted path in ``README.md`` and
``CONTRIBUTING.md`` must resolve by import + ``getattr``, and so must
every backticked ``ClassName.attr`` whose class is exported by
``repro.core``, ``repro.api``, ``repro.service`` or ``repro.functional``
— deleting a name the docs still quote fails here instead of shipping
a stale sentence.
"""

import dataclasses
import importlib
import inspect
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "CONTRIBUTING.md")
EXPORTING_PACKAGES = ("repro.core", "repro.api", "repro.service", "repro.functional")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
_CLASS_ATTR = re.compile(r"(?<![\w./-])([A-Z]\w*)((?:\.[A-Za-z_]\w*)+)")


def _exported_classes():
    classes = {}
    for package in EXPORTING_PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                classes[name] = obj
    return classes


def _instance_attr(cls, attr):
    """Names only instances carry: dataclass fields without a default,
    and attributes a plain class binds in ``__init__``."""
    if dataclasses.is_dataclass(cls):
        return attr in {f.name for f in dataclasses.fields(cls)}
    init = cls.__dict__.get("__init__")
    return init is not None and re.search(
        r"\bself\.%s\b" % re.escape(attr), inspect.getsource(init)
    ) is not None


def _resolve_dotted(path):
    """None when ``path`` resolves, else the reason it does not."""
    parts = path.split(".")
    obj = None
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if obj is None:
        return "no importable prefix"
    return _resolve_attrs(obj, parts[cut:])


def _resolve_attrs(obj, attrs):
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif inspect.isclass(obj) and _instance_attr(obj, attr):
            return None  # no object to walk further into
        else:
            return "%r has no attribute %r" % (obj, attr)
    return None


def _references(doc):
    with open(os.path.join(ROOT, doc)) as f:
        text = _FENCE.sub("", f.read())
    classes = _exported_classes()
    for span_match in _SPAN.finditer(text):
        span = span_match.group(1)
        for match in _DOTTED.finditer(span):
            yield match.group(0), None, ()
        for match in _CLASS_ATTR.finditer(span):
            cls = classes.get(match.group(1))
            if cls is not None:
                yield match.group(0), cls, match.group(2)[1:].split(".")


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_symbols_resolve(doc):
    stale = {}
    checked = 0
    for text, cls, attrs in _references(doc):
        checked += 1
        reason = _resolve_dotted(text) if cls is None else _resolve_attrs(cls, attrs)
        if reason is not None:
            stale[text] = reason
    assert not stale, "%s quotes names that no longer exist: %s" % (doc, stale)
    assert checked, "%s: the extractor found nothing to check" % doc


def test_guard_catches_a_deleted_name():
    """The names this repo has already shipped stale must not resolve."""
    assert _resolve_dotted("repro.core.sm.StreamingMultiprocessor.step") is None
    assert _resolve_dotted("repro.core.sm.StreamingMultiprocessor._heap_next_event")
    classes = _exported_classes()
    assert _resolve_attrs(classes["GPUDevice"], ["run"]) is None
    assert _resolve_attrs(classes["GPUDevice"], ["sms"]) is None  # set in __init__
    assert _resolve_attrs(classes["GPUDevice"], ["_run_event_loop"])
    assert _resolve_attrs(classes["Executor"], ["execute"]) is None
    assert _resolve_attrs(classes["Executor"], ["execute_masked"])
    assert _resolve_attrs(classes["ExecOutcome"], ["lane_addresses"]) is None
    assert _resolve_attrs(classes["ExecOutcome"], ["addresses"])
    assert _resolve_attrs(classes["FunctionalWarp"], ["regs"]) is None
    assert _resolve_attrs(classes["FunctionalWarp"], ["launch_mask"])
