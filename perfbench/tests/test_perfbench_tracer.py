import pytest

import run
from tracer import LAYERS, METHODS, Tracer, self_times


def bindings(modules):
    """Every module attribute and traced method, by identity."""
    out = {}
    for name, mod in modules.items():
        for attr, obj in vars(mod).items():
            out[(name, attr)] = id(obj)
    step = modules["weakapprox.measure"].StepFunction
    for _, _, meth in METHODS:
        out[("StepFunction", meth)] = id(vars(step)[meth])
    return out


@pytest.fixture
def modules():
    run.load_package()
    return run.package_modules()


def test_self_time_of_nested_spans():
    names = ["a", "b", "c"]
    spans = [
        (0, 0.0, 10.0, -1),  # a: 10 long, children b (3) and b (4)
        (1, 1.0, 4.0, 0),    # b: child c (1)
        (2, 2.0, 3.0, 1),
        (1, 5.0, 9.0, 0),
        (0, 20.0, 21.0, -1),  # a second root
    ]
    own = self_times(names, spans)
    assert own == pytest.approx({"a": 3.0 + 1.0, "b": 2.0 + 4.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(11.0)


def test_install_rebinds_every_name_and_uninstall_restores(modules):
    before = bindings(modules)
    original = modules["weakapprox.cf"].qnorm_table
    tracer = Tracer()
    tracer.install(modules)
    try:
        holders = ["weakapprox", "weakapprox.cf", "weakapprox.measure",
                   "weakapprox.exponents", "weakapprox.cli"]
        wrapped = {id(modules[h].qnorm_table) for h in holders}
        assert len(wrapped) == 1 and id(original) not in wrapped
    finally:
        tracer.uninstall()
    assert bindings(modules) == before


def test_each_function_is_wrapped_once(modules, tmp_path):
    tracer = Tracer()
    tracer.install(modules)
    try:
        with pytest.raises(RuntimeError):
            Tracer().install(modules)
        cli = modules["weakapprox.cli"]
        assert cli.main(["cf", "--prefix", "[0;2,2,2]", "--output",
                         str(tmp_path / "cf.json")]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["cli.main"] == 1
    assert calls["cf.qnorm_table"] == 1
    assert tracer.counts["cf.rows"] == 4
    assert len(tracer.names) == len(set(tracer.names))
    layers = {name.split(".")[0] for name in tracer.names}
    assert layers == set(LAYERS)
