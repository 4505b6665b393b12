"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_spans.py -q
"""

import sys
import textwrap
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Target, Tracer, leftover_wrappers  # noqa: E402

TOY = textwrap.dedent("""
    def inner():
        return 1

    def outer():
        return inner() + inner()

    TABLE = {"inner": inner}

    class Box:
        def get(self):
            return outer()
""")


@pytest.fixture
def toy(monkeypatch):
    """A package ``toypkg`` whose ``user`` module imported ``inner`` by name."""
    package = types.ModuleType("toypkg")
    impl = types.ModuleType("toypkg.impl")
    exec(TOY, impl.__dict__)
    user = types.ModuleType("toypkg.user")
    user.inner = impl.inner
    for module in (package, impl, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return impl, user


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_on_nested_calls(toy):
    impl, _ = toy
    tracer = Tracer(clock=ticking_clock())
    with tracer:
        tracer.instrument([Target("toypkg.impl", "outer", "outer"),
                           Target("toypkg.impl", "inner", "inner"),
                           Target("toypkg.impl", "Box.get", "get")], "toypkg")
        assert impl.Box().get() == 2
    # get [0,7] > outer [1,6] > inner [2,3], inner [4,5]
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [
        ("get", 0, 7), ("outer", 1, 6), ("inner", 2, 3), ("inner", 4, 5)]
    assert tracer.self_time(tracer.select("get")) == 2
    assert tracer.self_time(tracer.select("outer")) == 3
    assert tracer.self_time(tracer.select("inner")) == 2
    assert tracer.total(tracer.select("inner", under="get")) == 2
    assert tracer.select("inner", not_under="outer") == []


def test_every_binding_is_wrapped_then_restored(toy):
    impl, user = toy
    originals = (impl.inner, impl.TABLE["inner"], user.inner, impl.Box.get)
    tracer = Tracer()
    with tracer:
        tracer.instrument([Target("toypkg.impl", "inner", "inner"),
                           Target("toypkg.impl", "Box.get", "get"),
                           Target("toypkg.impl", "absent", "absent")], "toypkg")
        assert user.inner is impl.inner is impl.TABLE["inner"]
        assert impl.inner is not originals[0]
        assert len(leftover_wrappers("toypkg")) == 4
        user.inner()
        impl.TABLE["inner"]()
    assert (impl.inner, impl.TABLE["inner"], user.inner, impl.Box.get) == originals
    assert leftover_wrappers("toypkg") == []
    assert tracer.missing == ["toypkg.impl.absent"]
    assert [s.name for s in tracer.spans] == ["inner", "inner"]


def test_traced_cli_run_restores_the_program(tmp_path):
    import run
    import seampde.cli as cli

    originals = {name: value for name, value in vars(cli).items()}
    tracer = Tracer()
    config = cli.RunConfig(scenario="s3", m=4, out=str(tmp_path))
    with tracer:
        tracer.instrument(run.traced_targets(), "seampde")
        cli.execute(config)
    assert leftover_wrappers("seampde") == []
    assert tracer.missing == []
    assert all(vars(cli)[name] is value for name, value in originals.items())
    segments = cli.resolve_problem(config).segment_count
    metrics = run.layer_metrics(tracer, segments, 1, 0.0)
    assert metrics["pod.eig_calls_per_segment"] == 2.0
    assert metrics["seam.to_matrix_calls"] == 4
    assert metrics["hifi.cg_calls"] == 21 * 21 - 1
    assert 0 < metrics["cli.self_s"] < tracer.total(tracer.select("cli.execute"))
