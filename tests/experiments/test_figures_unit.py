"""Direct unit tests of the figure-harness plumbing (tiny scales)."""

from repro.experiments import figures
from repro.experiments.figures import BufferingVariant, MAPPING_LABEL, MAPPINGS


def test_mapping_labels_cover_all_mappings():
    assert set(MAPPING_LABEL) == set(MAPPINGS)
    assert all("Mapping" in label for label in MAPPING_LABEL.values())


def test_figure5_row_schema():
    rows = figures.figure5(subscriptions=10, publications=10, nodes=60)
    assert len(rows) == 6  # 3 mappings x 2 routings
    for row in rows:
        assert set(row) == {
            "mapping", "routing", "sub_hops", "pub_hops", "notify_hops",
            "keys_per_sub", "keys_per_pub",
        }


def test_figure6_expiration_none_supported():
    rows = figures.figure6(
        subscriptions=30, nodes=50,
        expiration_fractions=(None,), selective_counts=(0,),
    )
    assert len(rows) == 3
    assert all(row["expiration"] is None for row in rows)


def test_figure7_includes_reference_curve():
    rows = figures.figure7(node_counts=(50, 100), publications=20)
    assert [row["nodes"] for row in rows] == [50, 100]
    assert rows[1]["log2_n"] > rows[0]["log2_n"]


def test_figure9a_variant_labels_unique():
    labels = [v.label for v in figures.FIGURE9A_VARIANTS]
    assert len(set(labels)) == len(labels)
    custom = BufferingVariant("just buffering", "buffered", 3.0)
    rows = figures.figure9a(
        matching_probabilities=(0.5,),
        subscriptions=20, publications=30, nodes=60,
        variants=(custom,),
    )
    assert rows[0]["variant"] == "just buffering"
    assert "mean_delay" in rows[0]


def test_figure9b_width_fraction_zero_means_no_discretization():
    rows = figures.figure9b(width_fractions=(0.0,), subscriptions=15, nodes=50)
    assert rows[0]["interval_width"] == 1


def test_baseline_routing_schema():
    rows = figures.baseline_routing(
        nodes=60, publications=40, cache_capacities=(0,)
    )
    assert rows[0]["cache_capacity"] == 0
    assert rows[0]["pub_hops"] > 0
