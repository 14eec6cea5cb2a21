"""The matrix checks of `verify` report a failure when the unit test under
them answers wrongly: each is run as `run_checks` runs it, with every
`MatRing` unit test answering one fixed value."""

from ucayley import verify
from ucayley.rings import MatRing


def _report(monkeypatch, check_id, ctx, unit):
    """run_checks' result for the one small check `check_id`, run on ctx."""
    (description, fn), = [(d, f) for cid, d, f in verify.SMALL_CHECKS if cid == check_id]
    monkeypatch.setattr(verify, "SMALL_CHECKS", [(check_id, description, lambda _: fn(ctx))])
    monkeypatch.setattr(MatRing, "_unit", lambda self, a: unit)
    report = verify.run_checks()
    assert not report["passed"]
    (result,) = report["checks"]
    assert result["status"] == "fail"
    return result["detail"]


def test_family_check_fails_when_every_difference_is_a_unit(monkeypatch):
    detail = _report(monkeypatch, "lem-dk-family", verify._Ctx(), True)
    assert detail == "family not independent for (n=2,q=2)"


def test_row_mixing_fails_when_every_mix_is_a_unit(monkeypatch):
    ctx = verify._Ctx()
    ctx.greedy_over_family(3, 2)  # the graph and its maximal set, with the true units
    detail = _report(monkeypatch, "lem-comrows-3-2", ctx, True)
    assert detail.startswith("row mix of ") and detail.endswith(" over rows (0,) is invertible")


def test_avoidance_fails_when_no_matrix_is_a_unit(monkeypatch):
    detail = _report(monkeypatch, "lem-ab-avoidance", verify._Ctx(), False)
    assert detail == "A - B is singular for A=(0, 0, 0, 1) in M_2(F_2)"


def test_avoidance_fails_when_every_matrix_is_a_unit(monkeypatch):
    detail = _report(monkeypatch, "lem-ab-avoidance", verify._Ctx(), True)
    assert detail == "B is a unit for A=(0, 0, 0, 1) in M_2(F_2)"
