"""API-quality gates: documentation and export hygiene for every module."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocumentation:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_has_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} lacks a module docstring"
        )

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_callables_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for meth_name, meth in inspect.getmembers(
                        obj, inspect.isfunction
                    ):
                        if meth_name.startswith("_"):
                            continue
                        if meth.__qualname__.split(".")[0] != obj.__name__:
                            continue  # inherited
                        if meth.__doc__ and meth.__doc__.strip():
                            continue
                        # An override of a documented base-class method
                        # inherits that contract.
                        base_doc = any(
                            (getattr(base, meth_name, None) is not None)
                            and getattr(base, meth_name).__doc__
                            for base in obj.__mro__[1:]
                        )
                        if not base_doc:
                            undocumented.append(f"{name}.{meth_name}")
        assert not undocumented, (
            f"{module.__name__}: undocumented public API: {undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_all_names_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists missing name {name!r}"
            )

    def test_top_level_api_importable(self):
        # Everything advertised at the top level must import cleanly.
        for name in repro.__all__:
            assert getattr(repro, name) is not None


#: ``repro.ygm`` exports that need no caller outside the package, each
#: with the reason it stays public.
YGM_EXPORTS_WITHOUT_CALLERS = {
    "ExecTimeoutError": "raised by the multiprocessing backend when a "
    "run_on_rank / run_on_all wait times out",
    "resolve_handler": "the backends' own handler lookup",
}


def test_every_ygm_export_has_a_caller():
    """A name in ``repro.ygm.__all__`` must be used somewhere in
    ``src/repro`` outside ``repro/ygm/``, so dead substrate cannot hide
    behind an export."""
    import repro.ygm

    src = Path(repro.__file__).parent
    ygm_dir = src / "ygm"
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
        if ygm_dir not in path.parents
    )
    unused = [
        name
        for name in repro.ygm.__all__
        if name not in YGM_EXPORTS_WITHOUT_CALLERS
        and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not unused, f"repro.ygm exports with no caller outside repro/ygm: {unused}"


#: ``repro.serve`` exports that need no caller outside their defining
#: module, each with the reason it stays public.
SERVE_EXPORTS_WITHOUT_CALLERS = {
    "Counter": "the type ServiceMetrics.counter returns",
    "Gauge": "the type ServiceMetrics.gauge returns",
    "PartialExchangeError": "the typed error ExchangeAggregate.absorb raises",
    "PartialWeights": "the answer type ExchangeAggregate.absorb consumes",
    "MultiLayerDetectionEngine": "public API behind HttpGateway's layer= "
    "parameter; its fate is an open roadmap item",
}


def test_every_serve_export_has_a_caller():
    """A name in ``repro.serve.__all__`` must be used in ``src/repro``
    outside the module that defines it (the package's re-export does not
    count), in ``benchmarks/e2e`` or in ``examples/``."""
    import repro.serve

    src = Path(repro.__file__).parent
    root = src.parent.parent
    files = [
        path
        for path in [
            *src.rglob("*.py"),
            *(root / "benchmarks" / "e2e").rglob("*.py"),
            *(root / "examples").rglob("*.py"),
        ]
        if path != src / "serve" / "__init__.py"
    ]
    unused = []
    for name in repro.serve.__all__:
        if name in SERVE_EXPORTS_WITHOUT_CALLERS:
            continue
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        home = next(
            path
            for path in (src / "serve").glob("*.py")
            if re.search(
                rf"^(class|def) {re.escape(name)}\b|^{re.escape(name)} *[:=]",
                path.read_text(encoding="utf-8"),
                re.M,
            )
        )
        if not any(
            pattern.search(path.read_text(encoding="utf-8"))
            for path in files
            if path != home
        ):
            unused.append(name)
    assert not unused, f"repro.serve exports with no caller: {unused}"
