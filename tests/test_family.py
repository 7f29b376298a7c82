"""The seeded-family runner: lazy members and the one reduction."""

import numpy as np
import pytest

from vortexlab.family import Family, family_map, family_report


def counting_family(count, built):
    return Family(lambda rng: built.append(1) or rng.standard_normal(3), seed=5, count=count)


class TestFamily:
    def test_indexing_rebuilds_an_equal_member(self):
        built = []
        family = counting_family(4, built)
        a, b = family[2], family[2]
        assert a is not b and np.array_equal(a, b)
        assert np.array_equal(a, np.random.default_rng((5, 2)).standard_normal(3))
        assert len(built) == 2

    def test_len_is_the_count(self):
        assert len(counting_family(7, [])) == 7

    @pytest.mark.parametrize("i", [4, -1])
    def test_index_outside_the_family_raises(self, i):
        with pytest.raises(IndexError):
            counting_family(4, [])[i]

    def test_iteration_stops_at_the_count(self):
        assert len(list(counting_family(3, []))) == 3


class TestFamilyReport:
    def test_members_built_inside_the_mapped_call(self):
        # an executor's map submits every item at once: a runner mapping over
        # built members would hold the whole family before the first task
        built = []
        events = []

        def recording_map(fn, items):
            items = list(items)
            events.append(("submitted", len(built)))
            out = []
            for i in items:
                before = len(built)
                out.append(fn(i))
                events.append(("task", len(built) - before))
            return out

        family = counting_family(4, built)
        family_map(family, lambda i, x: {"ratio": float(x[0])}, recording_map)
        assert events == [("submitted", 0)] + [("task", 1)] * 4

    def test_reduction(self):
        ratios = [3.0, None, 1.0, None, 2.0]
        rep = family_report([None if r is None else {"i": i, "ratio": r}
                             for i, r in enumerate(ratios)])
        assert rep == {
            "rows": [{"i": 0, "ratio": 3.0}, {"i": 2, "ratio": 1.0}, {"i": 4, "ratio": 2.0}],
            "family_max": 3.0,
            "family_mean": 2.0,
            "discarded": 2,
        }

    def test_all_degenerate(self):
        rep = family_report([None, "why member 1 was dropped"])
        assert rep == {"rows": [], "family_max": 0.0, "family_mean": 0.0, "discarded": 2}
