import random

import pytest

from oscmlab import (BipartiteInstance, InstanceParseError, count_crossings,
                     count_restricted_crossings, count_same_color_crossings,
                     count_two_level_crossings, format_instance, load_instance,
                     parse_instance_text, save_instance)
from oscmlab.bigraph import check_ordering

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
CROSS_PAIR = BipartiteInstance(2, 2, ((0, 1), (1, 0)))

SEEDS = [11, 23, 37, 59, 71, 97, 113, 131]


@pytest.mark.parametrize("ordering,expected", [((0, 1), 1), ((1, 0), 1)])
def test_k22_crossings(ordering, expected):
    assert count_crossings(K22, ordering) == expected


@pytest.mark.parametrize("ordering,expected", [((0, 1), 1), ((1, 0), 0)])
def test_cross_pair_crossings(ordering, expected):
    assert count_crossings(CROSS_PAIR, ordering) == expected


@pytest.mark.parametrize("edges", [(), ((1, 2),)])
def test_at_most_one_edge_never_crosses(edges):
    inst = BipartiteInstance(3, 3, edges)
    for ordering in [(0, 1, 2), (2, 1, 0), (1, 2, 0)]:
        assert count_crossings(inst, ordering) == 0


def test_instance_validation():
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((2, 0),))  # u out of range
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((0, 2),))  # v out of range
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((0, 0), (0, 0)))  # duplicate edge
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((0, 0),), (1,), 1)  # color >= n_colors
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, (), (), 0)  # h < 1
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((0, 0), (0, 1)), (0,), 1)  # length mismatch
    with pytest.raises(ValueError):
        BipartiteInstance(-1, 2)


def test_duplicate_edge_allowed_across_colors():
    inst = BipartiteInstance(2, 2, ((0, 0), (0, 0)), (0, 1), 2)
    assert inst.n_edges == 2
    with pytest.raises(ValueError):
        inst.uncolored()


def test_uncolored_strips_classes():
    inst = BipartiteInstance(2, 3, ((0, 0), (1, 2)), (0, 1), 2)
    flat = inst.uncolored()
    assert flat.n_colors == 1
    assert flat.colors == (0, 0)
    assert flat.edges == inst.edges


def test_check_ordering_rejects_bad_input():
    with pytest.raises(ValueError):
        check_ordering(3, (0, 1))  # wrong length
    with pytest.raises(ValueError):
        check_ordering(3, (0, 1, 1))  # duplicate
    with pytest.raises(ValueError):
        check_ordering(3, (0, 1, 3))  # out of range


def test_same_color_crossings_ignore_cross_color_pairs():
    bicolored = BipartiteInstance(2, 2, ((0, 1), (1, 0)), (0, 1), 2)
    assert count_same_color_crossings(bicolored, (0, 1)) == 0
    assert count_crossings(bicolored, (0, 1)) == 1


def test_two_level_with_identity_u_matches_one_sided():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_instance(rng, 4, 5, 0.5)
        v_ord = list(range(5))
        rng.shuffle(v_ord)
        assert count_two_level_crossings(inst, tuple(range(4)), tuple(v_ord)) \
            == count_crossings(inst, tuple(v_ord))


@pytest.mark.parametrize("seed", SEEDS)
def test_restricted_crossings_full_and_empty(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, 4, 6, 0.5)
    ordering = list(range(6))
    rng.shuffle(ordering)
    ordering = tuple(ordering)
    assert count_restricted_crossings(inst, ordering, range(6)) \
        == count_crossings(inst, ordering)
    assert count_restricted_crossings(inst, ordering, ()) == 0


def test_parse_basic_with_comments():
    text = """
    # a K_{2,2} with a trailing comment
    2 2 4 1
    0 0
    0 1   # edge
    1 0
    1 1
    """
    inst = parse_instance_text(text)
    assert (inst.n_u, inst.n_v, inst.n_edges, inst.n_colors) == (2, 2, 4, 1)
    assert inst.edges == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_parse_colored():
    inst = parse_instance_text("2 2 2 2\n0 1 0\n1 0 1\n")
    assert inst.colors == (0, 1)
    assert inst.n_colors == 2


@pytest.mark.parametrize("text,fragment", [
    ("", "empty instance"),
    ("2 2 4\n", "header needs 4 fields"),
    ("2 x 0 1\n", "non-integer header"),
    ("2 2 1 1\n", "promises 1 edges"),
    ("2 2 1 1\n0 0 0 0\n", "edge line needs"),
    ("2 2 1 1\n0 q\n", "non-integer edge"),
    ("2 2 1 1\n0 5\n", "out of range"),
    ("2 2 0 0\n", "h >= 1"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceParseError, match=fragment):
        parse_instance_text(text)


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceParseError, match="line 3"):
        parse_instance_text("2 2 2 1\n0 0\nbad line\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_format_parse_round_trip(seed):
    rng = random.Random(seed)
    h = rng.choice([1, 1, 2, 3])
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 6), 0.5, h)
    again = parse_instance_text(format_instance(inst))
    assert again == inst


def test_save_load_round_trip(tmp_path):
    inst = random_instance(random.Random(3), 3, 4, 0.6, 2)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_color_column_only_when_colored():
    assert "0 0 0" not in format_instance(BipartiteInstance(1, 1, ((0, 0),)))
    colored = BipartiteInstance(1, 1, ((0, 0),), (0,), 2)
    assert format_instance(colored).splitlines()[1] == "0 0 0"
