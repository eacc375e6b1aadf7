"""The benchmark's tracer rebinds names in btvc by (owner, attribute), so
each must still exist: a deleted or renamed one would otherwise surface
only as an AttributeError from Tracer.install in a traced benchmark run.

The untraced benchmark code reads btvc names, passes keywords to btvc
callables and config keys to `btvc ... --set` too; those are checked from
the source, without running it."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import sys

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")


def test_every_traced_name_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert missing == []


_UNKNOWN = object()


def _btvc_names(tree: ast.Module) -> dict:
    """Each local name a module binds by importing from btvc, to its object."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "btvc":
                    # `import btvc.cli` binds btvc; `import btvc.cli as c` binds c
                    module = importlib.import_module(alias.name)
                    names[alias.asname or "btvc"] = module if alias.asname else sys.modules["btvc"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "btvc":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(owner, alias.name)
                except AttributeError:  # a submodule not imported by its package
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = value
    return names


def _resolve(node, names, where, missing):
    """The object a Name or dotted Attribute read refers to, or _UNKNOWN when
    it does not start at a btvc import; a missing attribute is recorded."""
    if isinstance(node, ast.Name):
        return names.get(node.id, _UNKNOWN)
    if not isinstance(node, ast.Attribute):
        return _UNKNOWN
    owner = _resolve(node.value, names, where, missing)
    if owner is _UNKNOWN:
        return _UNKNOWN
    if not hasattr(owner, node.attr):
        missing.add(f"{where}:{node.lineno} {ast.unparse(node)}")
        return _UNKNOWN
    return getattr(owner, node.attr)


def _benchmark_sources():
    for path in sorted(pathlib.Path(PERFBENCH).glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_every_btvc_attribute_the_benchmark_reads_resolves():
    missing, seen = set(), 0
    for name, tree in _benchmark_sources():
        names = _btvc_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if _resolve(node, names, name, missing) is not _UNKNOWN:
                    seen += 1
    assert missing == set()
    assert seen > 0  # the walk found the benchmark's btvc reads


def test_every_keyword_the_benchmark_passes_to_btvc_is_a_parameter():
    from btvc.inference import MapConfig, SviConfig

    unknown, called = [], set()
    for name, tree in _benchmark_sources():
        names = _btvc_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(node.func, names, name, set())
            if target is _UNKNOWN or not callable(target):
                continue
            called.add(target)
            params = inspect.signature(target).parameters
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
                continue
            unknown += [f"{name}:{node.lineno} {ast.unparse(node.func)}({kw.arg}=)"
                        for kw in node.keywords if kw.arg is not None and kw.arg not in params]
    assert unknown == []
    # a dataclass's parameters are its fields, so these two are checked
    # against the fields MapConfig and SviConfig keep
    assert {MapConfig, SviConfig} <= called


def _set_arguments(tree: ast.Module):
    """(line, text) for each argument that follows a "--set" in a list, tuple
    or call: the string, or an f-string's text before its first field; text
    is None for anything else, whose key cannot be read from the source."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple)):
            items = node.elts
        elif isinstance(node, ast.Call):
            items = node.args
        else:
            continue
        for flag, arg in zip(items, items[1:]):
            if not (isinstance(flag, ast.Constant) and flag.value == "--set"):
                continue
            if isinstance(arg, ast.JoinedStr) and arg.values:
                arg = arg.values[0]
            is_text = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            yield arg.lineno, arg.value if is_text else None


def test_every_key_the_benchmark_sets_is_a_config_field():
    from btvc.runconfig import RunConfig

    live = {f.name for f in dataclasses.fields(RunConfig)}
    bad, seen = [], 0
    for name, tree in _benchmark_sources():
        for lineno, text in _set_arguments(tree):
            seen += 1
            key, sep, _ = (text or "").partition("=")
            if not sep or key not in live:
                bad.append(f"{name}:{lineno} {text!r}")
    assert bad == []
    assert seen > 0  # the walk found the benchmark's --set arguments
