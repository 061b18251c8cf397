"""The public import surface of the package."""

import fkdet


def test_public_names_resolve_once():
    assert len(fkdet.__all__) == len(set(fkdet.__all__))
    for name in fkdet.__all__:
        assert getattr(fkdet, name, None) is not None, name


def test_removed_names_stay_gone():
    for name in (
        "SpecSchedule",
        "build_schedule",
        "fk_det_zd_via_specialization",
        "mahler_boyd_lawton",
        "default_bl_schedule",
    ):
        assert name not in fkdet.__all__
        assert not hasattr(fkdet, name)
