from random import Random

import pytest
from hypothesis import given

import helpers
from sigdom import (
    EdgeListFormatError,
    FamilyInfo,
    Graph,
    SignedGraph,
    format_vertex_set,
    parse_vertex_spec,
    petersen,
    random_signature,
    read_edge_list,
    read_signed_edge_list,
    write_edge_list,
    write_signed_edge_list,
)


# ------------------------------------------------------------- round trips


@given(helpers.graphs())
def test_plain_round_trip(data):
    n, edges = data
    g = Graph(n, edges)
    back, fam = read_edge_list(write_edge_list(g))
    assert back == g
    assert fam is None


@given(helpers.signed_edge_data())
def test_signed_round_trip(data):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    back, fam = read_signed_edge_list(write_signed_edge_list(s))
    assert back == s
    assert fam is None
    # the reader skips SignedGraph's checks; the checking constructor accepts its result
    assert SignedGraph(back.graph, back.signs) == back


def test_family_header_round_trip():
    fam = petersen(5, 2)
    info = FamilyInfo("P", (5, 2))
    text = write_edge_list(fam.graph, info)
    assert text.splitlines()[0] == "# family P 5 2"
    back, got = read_edge_list(text)
    assert back == fam.graph
    assert got == info
    assert got.n == 5


def test_signed_family_round_trip():
    fam = petersen(4, 1)
    s = random_signature(fam.graph, seed=3)
    info = FamilyInfo("P", (4, 1))
    back, got = read_signed_edge_list(write_signed_edge_list(s, info))
    assert back == s
    assert got == info
    assert SignedGraph(back.graph, back.signs) == back


def _scrambled(text, seed):
    """Headed edge-list text with every row reversed, the rows shuffled and one repeated."""
    header, counts, *rows = text.splitlines()
    n, m = counts.split()
    rows = [" ".join([b, a, *rest]) for a, b, *rest in map(str.split, rows)]
    Random(seed).shuffle(rows)
    rows.append(rows[0])
    return "\n".join([header, f"{n} {int(m) + 1}", *rows]) + "\n"


@pytest.mark.parametrize(
    "fam", [FamilyInfo("P", (5, 2)), FamilyInfo("I", (7, 2, 3)), FamilyInfo("K4U", (2,))]
)
def test_headed_read_takes_edges_in_any_order_and_repeated(fam):
    # the header check compares edge sets, not the rows as written
    plain = _scrambled(write_edge_list(fam.graph, fam), 1)
    assert read_edge_list(plain)[0] == fam.graph
    signed = random_signature(fam.graph, seed=2)
    back, got = read_signed_edge_list(_scrambled(write_signed_edge_list(signed, fam), 3))
    # signed is over fam.graph, so this also compares the graphs
    assert back == signed
    assert got == fam
    assert SignedGraph(back.graph, back.signs) == back


# ------------------------------------------------------------ tolerant input


def test_comments_and_blank_lines_skipped():
    text = """
# a comment
3 2

0 1
# another
1 2
"""
    g, fam = read_edge_list(text)
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert fam is None


def test_read_edge_list_accepts_both_formats():
    # signs are dropped on purpose: the caller wants the underlying graph
    plain = "3 2\n0 1\n1 2\n"
    signed = "3 2\n0 1 -\n1 2 +\n"
    g1, _ = read_edge_list(plain)
    g2, _ = read_edge_list(signed)
    assert g1 == g2 == Graph(3, [(0, 1), (1, 2)])
    assert not isinstance(g2, SignedGraph)


# ---------------------------------------------------------------- bad input


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "3\n",  # header too short
        "3 2\n0 1\n",  # fewer edges than declared
        "3 1\n0 1\n1 2\n",  # more edges than declared
        "3 1\n0 3\n",  # endpoint out of range
        "3 1\n0 0\n",  # self loop
        "x 1\n0 1\n",  # non-integer header
        "3 1\n0 one\n",  # non-integer endpoint
        "3 1\n0 1 2 3\n",  # too many tokens in a row
        "1_1 1\n0 1_0\n",  # int() takes "1_1" as 11; counts are decimal digits only
        "11 1\n0 1_0\n",  # and so are endpoints
        "3 1\n0 1\n# family P 3 1\n",  # family header after data
        "# family Q 3\n3 1\n0 1\n",  # unknown family
        "# family P 3\n3 1\n0 1\n",  # wrong parameter count
        "# family P 6 1\n10 0\n",  # P(6,1) has 12 vertices, not 10
        "# family P 5 7\n10 0\n",  # 2k >= n: gen refuses P(5,7)
        "# family I 9 4 2\n18 0\n",  # j > k: gen refuses I(9,4,2)
        "# family K4U 0\n0 0\n",  # gen refuses K4U with no component
        "# family P 5 \u00b2\n10 0\n",  # a digit that int() rejects
        "# family K4U 1\n4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n",  # K4U(1) also has edge 2-3
    ],
)
def test_plain_format_errors(text):
    with pytest.raises(EdgeListFormatError):
        read_edge_list(text)


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n0 1\n",  # missing sign column
        "2 1\n0 1 ?\n",  # bad sign token
        "2 1\n0 1 +1\n",  # signs are bare + or -
        "+3 1\n0 1 -\n",  # int() takes "+3" as 3
        "3 1\n+1 2 -\n",  # and "+1" as 1
        "3 2\n0 1 +\n1 0 -\n",  # conflicting duplicate
        "# family K4U 2\n4 1\n0 1 +\n",  # K4U(2) has 8 vertices, not 4
        # P(3,1) has spoke 0-3, not 0-4
        "# family P 3 1\n6 9\n0 1 +\n0 2 -\n0 4 +\n1 2 +\n1 4 -\n2 5 +\n3 4 +\n3 5 +\n4 5 +\n",
    ],
)
def test_signed_format_errors(text):
    with pytest.raises(EdgeListFormatError):
        read_signed_edge_list(text)


def test_duplicate_edge_same_sign_collapses():
    s, _ = read_signed_edge_list("3 2\n0 1 -\n1 0 -\n")
    assert s.graph.edges == ((0, 1),)
    assert s.sign(0, 1) == -1
    assert SignedGraph(s.graph, s.signs) == s


def test_error_messages_carry_line_numbers():
    with pytest.raises(EdgeListFormatError, match="line 2"):
        read_edge_list("3 1\n0 9\n")
    with pytest.raises(EdgeListFormatError, match="line 2: expected 'a b'$"):
        read_edge_list("11 1\n0 1_0\n")
    # the first edge row fixes the format, so a sign column later is an error
    with pytest.raises(EdgeListFormatError, match="line 3: expected 'a b'$"):
        read_edge_list("3 2\n0 1\n1 2 +\n")


@pytest.mark.parametrize("read", [read_edge_list, read_signed_edge_list])
@pytest.mark.parametrize(
    "text,message",
    [
        ("100001 0\n", "line 1: n=100001 is above the 100000-vertex ceiling"),
        # a 13-byte file that would otherwise build Graph(10**9, [])
        ("1000000000 0\n", "line 1: n=1000000000 is above the 100000-vertex ceiling"),
        # refused before the rows are counted, and named by its own line
        ("# big\n\n100001 5\n0 1 +\n", "line 3: n=100001 is above the 100000-vertex ceiling"),
        (
            "# family P 50001 2\n100002 0\n",
            "line 1: family P 50001 2 has 100002 vertices, above the 100000-vertex ceiling",
        ),
    ],
)
def test_counts_above_the_vertex_ceiling_are_refused(read, text, message):
    with pytest.raises(EdgeListFormatError) as exc:
        read(text)
    assert str(exc.value) == message


# ------------------------------------------------------------- vertex specs


def test_parse_vertex_spec_raw_indices():
    assert parse_vertex_spec("0,2,5", 8, None) == frozenset({0, 2, 5})
    assert parse_vertex_spec(" 1 , 3 ", 8, None) == frozenset({1, 3})


def test_parse_vertex_spec_labels_need_family():
    info = FamilyInfo("P", (4, 1))
    assert parse_vertex_spec("u0,v3", 8, info) == frozenset({0, 7})
    with pytest.raises(ValueError):
        parse_vertex_spec("u0", 8, None)
    with pytest.raises(ValueError):
        parse_vertex_spec("u0", 8, FamilyInfo("K4U", (2,)))


def test_parse_vertex_spec_range_checks():
    with pytest.raises(ValueError):
        parse_vertex_spec("9", 8, None)
    for token in ("1_0", "+1"):  # in range once int() reads them
        with pytest.raises(ValueError, match="bad vertex token"):
            parse_vertex_spec(token, 20, None)
    # '²'.isdigit() holds, but u² is no label, whatever the header
    for family in (None, FamilyInfo("K4U", (5,)), FamilyInfo("P", (10, 1))):
        with pytest.raises(ValueError, match="bad vertex token 'u²'"):
            parse_vertex_spec("u²", 20, family)
    with pytest.raises(ValueError):
        parse_vertex_spec("u4", 8, FamilyInfo("P", (4, 1)))


def test_format_vertex_set_round_trip():
    info = FamilyInfo("P", (4, 1))
    members = frozenset({0, 5, 7})
    text = format_vertex_set(members, info)
    assert text == "u0,v1,v3"
    assert parse_vertex_spec(text, 8, info) == members
    assert format_vertex_set(members, None) == "0,5,7"
