"""Text formats: edge lists, signed edge lists, family headers, vertex specs.

Unsigned format: first line "n m", then m lines "a b" (0-based).  Signed
format adds a sign column: "a b s" with s one of "+" or "-".  A comment
line "# family KIND PARAMS", a `families.FamilyInfo` as `gen` writes it, may
precede the header and lets vertex specs use u/v labels; the edges must then
be exactly the family's.  Counts and vertex indices are `str.isdecimal`
tokens.  Writers emit edges in canonical sorted order.
"""

from __future__ import annotations

from .families import (
    MAX_VERTICES,
    FamilyInfo,
    InvalidParametersError,
    index_to_label,
    label_to_index,
)
from .graph import Edge, Graph
from .signed import SignedGraph


class EdgeListFormatError(ValueError):
    """Malformed edge-list text; messages carry the 1-based line number."""


def _parse_family(line: str, ln: int) -> FamilyInfo:
    kind, *raw = line[1:].split()[1:] or [""]
    if not all(p.isdecimal() for p in raw):
        raise EdgeListFormatError(f"line {ln}: family parameters must be decimal integers")
    try:
        return FamilyInfo(kind, tuple(int(p) for p in raw))
    except InvalidParametersError as exc:
        raise EdgeListFormatError(f"line {ln}: {exc}") from None


def _scan(text: str) -> tuple[FamilyInfo | None, list[tuple[int, list[str]]]]:
    family = None
    rows: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].split()[:1] == ["family"]:
                if family is not None or rows:
                    raise EdgeListFormatError(
                        f"line {ln}: family header must be unique and precede all data"
                    )
                family = _parse_family(line, ln)
            continue
        rows.append((ln, line.split()))
    return family, rows


def _header_counts(
    family: FamilyInfo | None, rows: list[tuple[int, list[str]]]
) -> tuple[int, int]:
    if not rows:
        raise EdgeListFormatError("line 1: missing 'n m' header")
    ln, tokens = rows[0]
    # the family header's rule: int() alone would also take "1_0" and "+1"
    if len(tokens) != 2 or not (tokens[0].isdecimal() and tokens[1].isdecimal()):
        raise EdgeListFormatError(f"line {ln}: expected 'n m'")
    n, m = int(tokens[0]), int(tokens[1])
    if n > MAX_VERTICES:
        raise EdgeListFormatError(f"line {ln}: n={n} is above the {MAX_VERTICES}-vertex ceiling")
    if len(rows) - 1 != m:
        raise EdgeListFormatError(
            f"line {ln}: header promises {m} edge lines, found {len(rows) - 1}"
        )
    if family is not None and n != family.vertices:
        raise EdgeListFormatError(
            f"line {ln}: {family.header()[2:]} has {family.vertices} vertices, header says n={n}"
        )
    return ln, n


def _read(text: str, signed: bool) -> tuple[Graph, dict[Edge, int], FamilyInfo | None]:
    # signed=True requires signs; False takes the format from the first edge row
    family, rows = _scan(text)
    header_ln, n = _header_counts(family, rows)
    signed = signed or len(rows) > 1 and len(rows[1][1]) == 3
    width, what = (3, "'a b s'") if signed else (2, "'a b'")
    edges = []
    signs: dict[Edge, int] = {}
    for ln, tokens in rows[1:]:
        if len(tokens) != width or signed and tokens[2] not in ("+", "-"):
            raise EdgeListFormatError(
                f"line {ln}: expected {what}" + (" with s in {+,-}" if signed else "")
            )
        a, b = tokens[0], tokens[1]
        if not (a.isdecimal() and b.isdecimal()):
            raise EdgeListFormatError(f"line {ln}: expected {what}")
        a, b = int(a), int(b)
        if a == b:
            raise EdgeListFormatError(f"line {ln}: self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise EdgeListFormatError(f"line {ln}: endpoint out of range for n={n}")
        e = (a, b) if a < b else (b, a)
        if signed:
            s = 1 if tokens[2] == "+" else -1
            if signs.get(e, s) != s:
                raise EdgeListFormatError(f"line {ln}: conflicting sign for edge {e}")
            signs[e] = s
        edges.append(e)
    if family is None:
        return Graph(n, edges), signs, family
    # u/v labels and the header written back out name the family's graph,
    # so the edges must be exactly that graph's, not only as many vertices
    if set(edges) != set(family.graph.edges):
        raise EdgeListFormatError(
            f"line {header_ln}: edges are not those of {family.header()[2:]}"
        )
    return family.graph, signs, family


def _write(graph: Graph, signs: dict[Edge, int] | None, family: FamilyInfo | None) -> str:
    lines = [family.header()] if family else []
    lines.append(f"{graph.n} {len(graph.edges)}")
    for a, b in graph.edges:
        sign = "" if signs is None else " +" if signs[a, b] > 0 else " -"
        lines.append(f"{a} {b}{sign}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> tuple[Graph, FamilyInfo | None]:
    """Read either format, keeping only the underlying graph."""
    graph, _, family = _read(text, False)
    return graph, family


def write_edge_list(graph: Graph, family: FamilyInfo | None = None) -> str:
    return _write(graph, None, family)


def read_signed_edge_list(text: str) -> tuple[SignedGraph, FamilyInfo | None]:
    graph, signs, family = _read(text, True)
    # _read's signs are canonical, total, +1/-1 and conflict-free on graph.edges
    return SignedGraph._trusted(graph, signs), family


def write_signed_edge_list(signed: SignedGraph, family: FamilyInfo | None = None) -> str:
    return _write(signed.graph, signed.signs, family)


def parse_vertex_spec(
    spec: str, n_vertices: int, family: FamilyInfo | None
) -> frozenset[int]:
    """Parse a comma-separated vertex set; u/v labels need a family header."""
    members = set()
    for token in filter(None, (t.strip() for t in spec.split(","))):
        if token[0] in "uv" and token[1:].isdecimal():
            if family is None or family.n is None:
                raise ValueError(
                    f"label {token!r} needs a family header with u/v labels"
                )
            members.add(label_to_index(token, family.n))
        elif token.isdecimal():
            members.add(int(token))
        else:
            raise ValueError(f"bad vertex token {token!r}")
    for v in members:
        if not (0 <= v < n_vertices):
            raise ValueError(f"vertex {v} out of range for n={n_vertices}")
    return frozenset(members)


def format_vertex_set(members: frozenset[int], family: FamilyInfo | None) -> str:
    """Render a vertex set, as u/v labels when the family provides them."""
    ordered = sorted(members)
    if family is not None and family.n is not None:
        return ",".join(index_to_label(v, family.n) for v in ordered)
    return ",".join(map(str, ordered))
