"""Text formats: edge lists, signed edge lists, family headers, vertex specs.

Unsigned format: first line "n m", then m lines "a b" (0-based).  Signed
format adds a sign column: "a b s" with s one of "+" or "-".  A comment
line "# family KIND PARAMS", a `families.FamilyInfo` as `gen` writes it, may
precede the header and lets vertex specs use u/v labels; the edges must then
be exactly the family's.  Writers emit
edges in canonical sorted order.
"""

from __future__ import annotations

from .families import FamilyInfo, InvalidParametersError, index_to_label, label_to_index
from .graph import Graph
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


def _ints(tokens: list[str], ln: int, what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise EdgeListFormatError(f"line {ln}: expected {what}") from None


def _header_counts(
    family: FamilyInfo | None, rows: list[tuple[int, list[str]]]
) -> tuple[int, int]:
    if not rows:
        raise EdgeListFormatError("line 1: missing 'n m' header")
    ln, tokens = rows[0]
    if len(tokens) != 2:
        raise EdgeListFormatError(f"line {ln}: expected 'n m'")
    n, m = _ints(tokens, ln, "'n m'")
    if n < 0 or m < 0:
        raise EdgeListFormatError(f"line {ln}: counts must be nonnegative")
    if len(rows) - 1 != m:
        raise EdgeListFormatError(
            f"line {ln}: header promises {m} edge lines, found {len(rows) - 1}"
        )
    if family is not None and n != family.vertices:
        raise EdgeListFormatError(
            f"line {ln}: {family.header()[2:]} has {family.vertices} vertices, header says n={n}"
        )
    return n, m


def _check_family_edges(family: FamilyInfo | None, graph: Graph, ln: int) -> None:
    # u/v labels and the header written back out name the family's graph,
    # so the edges must be exactly that graph's, not only as many vertices
    if family is not None and graph != family.graph():
        raise EdgeListFormatError(f"line {ln}: edges are not those of {family.header()[2:]}")


def _check_endpoints(a: int, b: int, n: int, ln: int) -> None:
    if a == b:
        raise EdgeListFormatError(f"line {ln}: self-loop at vertex {a}")
    if not (0 <= a < n and 0 <= b < n):
        raise EdgeListFormatError(f"line {ln}: endpoint out of range for n={n}")


def read_edge_list(text: str) -> tuple[Graph, FamilyInfo | None]:
    family, rows = _scan(text)
    n, _ = _header_counts(family, rows)
    edges = []
    for ln, tokens in rows[1:]:
        if len(tokens) != 2:
            raise EdgeListFormatError(f"line {ln}: expected 'a b'")
        a, b = _ints(tokens, ln, "'a b'")
        _check_endpoints(a, b, n, ln)
        edges.append((a, b))
    graph = Graph(n, edges)
    _check_family_edges(family, graph, rows[0][0])
    return graph, family


def write_edge_list(graph: Graph, family: FamilyInfo | None = None) -> str:
    lines = [family.header()] if family else []
    lines.append(f"{graph.n} {len(graph.edges)}")
    lines.extend(f"{a} {b}" for a, b in graph.edges)
    return "\n".join(lines) + "\n"


def read_signed_edge_list(text: str) -> tuple[SignedGraph, FamilyInfo | None]:
    family, rows = _scan(text)
    n, _ = _header_counts(family, rows)
    edges = []
    signs: dict[tuple[int, int], int] = {}
    for ln, tokens in rows[1:]:
        if len(tokens) != 3 or tokens[2] not in ("+", "-"):
            raise EdgeListFormatError(f"line {ln}: expected 'a b s' with s in {{+,-}}")
        a, b = _ints(tokens[:2], ln, "'a b s'")
        _check_endpoints(a, b, n, ln)
        e = (a, b) if a < b else (b, a)
        s = 1 if tokens[2] == "+" else -1
        if signs.get(e, s) != s:
            raise EdgeListFormatError(f"line {ln}: conflicting sign for edge {e}")
        signs[e] = s
        edges.append(e)
    graph = Graph(n, edges)
    _check_family_edges(family, graph, rows[0][0])
    return SignedGraph(graph, signs), family


def write_signed_edge_list(signed: SignedGraph, family: FamilyInfo | None = None) -> str:
    lines = [family.header()] if family else []
    lines.append(f"{signed.graph.n} {len(signed.graph.edges)}")
    lines.extend(
        f"{a} {b} {'+' if signed.signs[(a, b)] > 0 else '-'}"
        for a, b in signed.graph.edges
    )
    return "\n".join(lines) + "\n"


def read_graph_any(text: str) -> tuple[Graph, FamilyInfo | None]:
    """Read either format, keeping only the underlying graph."""
    _, rows = _scan(text)
    if len(rows) > 1 and len(rows[1][1]) == 3:
        signed, family = read_signed_edge_list(text)
        return signed.graph, family
    return read_edge_list(text)


def parse_vertex_spec(
    spec: str, n_vertices: int, family: FamilyInfo | None
) -> frozenset[int]:
    """Parse a comma-separated vertex set; u/v labels need a family header."""
    members = set()
    for token in filter(None, (t.strip() for t in spec.split(","))):
        if token[0] in "uv" and token[1:].isdigit():
            if family is None or family.n is None:
                raise ValueError(
                    f"label {token!r} needs a family header with u/v labels"
                )
            members.add(label_to_index(token, family.n))
        else:
            try:
                v = int(token)
            except ValueError:
                raise ValueError(f"bad vertex token {token!r}") from None
            members.add(v)
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
