import skyroute
from skyroute import harness


def test_every_exported_name_resolves():
    namespace = {}
    exec("from skyroute import *", namespace)
    assert len(set(skyroute.__all__)) == len(skyroute.__all__)
    for name in skyroute.__all__:
        assert namespace[name] is getattr(skyroute, name)


def test_exports_the_solver_plan_runs():
    assert skyroute.row_dp is harness.row_dp
