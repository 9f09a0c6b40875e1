"""Seeded inputs and statement sequences of the end-to-end benchmark.

Every workload is a fixed list of statements over seeded dirty tables.
Each statement has a *kind*, which decides the end-to-end latency metric
it feeds:

* ``cold``    — a SELECT DEDUP asked for the first time on its engine
  (``sp-cold``/``spj-cold`` also clear every cache before it);
* ``warm``    — a SELECT asked again at the same table state
  (``progressive-ingest``), or a hot repeated one (``served``);
* ``insert``  — an ``INSERT INTO`` batch from the table's seeded suffix;
* ``refresh`` — the SELECT right after an insert whose answer includes
  the new rows; its latency is counted from the moment the insert was
  sent.

The tables are generated once per run, outside every timed region; the
engine only ever sees the generated rows and SQL text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.workload import join_query, range_queries, sp_queries
from repro.datagen import generate_people
from repro.datagen.organizations import generate_organizations
from repro.datagen.scholarly import generate_dsd, generate_oagp, generate_oagv
from repro.sql.ast import Literal
from repro.storage.schema import Schema
from repro.storage.table import Table

WORKLOADS = ("sp-cold", "spj-cold", "progressive-ingest", "served")

#: Rows per table at ``scale=1``.  Sized so one pass of each workload
#: takes a few seconds on two cores: the paper-scale (/1000) tables make
#: a single fig12 Q7a take 12 s, far beyond one benchmark run.  PPL⋈OAO
#: is sized so that Group Entities, which grows faster than resolution
#: with the join's fan-out, is the largest stage of Q7a (~56% at
#: 700 ⋈ 220, about a fifth at 450 ⋈ 150); five copies average out how
#: much the fan-out varies between seeds.
SIZES = {
    "sp-cold": {"OAGP": 380, "DSD": 300},
    "spj-cold": {"PPL": 700, "OAO": 220, "OAGP": 250},
    "progressive-ingest": {"PPL": 500},
    "served": {"PPL": 1800},
}
#: Independently generated copies of every table per workload.
COPIES = {"sp-cold": 3, "spj-cold": 5, "progressive-ingest": 3, "served": 1}
#: Rows appended by each ``INSERT INTO`` batch, per workload.
INSERT_BATCH = {"sp-cold": 10, "spj-cold": 10, "progressive-ingest": 30, "served": 10}
#: ``INSERT INTO`` batches per pass and table copy, per workload.
INSERT_BATCHES = {"sp-cold": 2, "spj-cold": 2, "progressive-ingest": 3, "served": 5}
#: Statements per client per ``served`` pass, and how many ids a range
#: selection spans.
SERVED_STATEMENTS_PER_CLIENT = 60
SERVED_RANGE_WIDTH = 25
#: How far back from the first inserted id a refresh selection reaches.
REFRESH_LOOKBACK = 30


@dataclass(frozen=True)
class Statement:
    """One statement of a pass; ``rows`` is set for inserts only.
    ``query`` names the workload query it asks (fig9's ``Q5``, fig12's
    ``Q7a``, ...), or its kind when it has no figure id.  ``fresh_gate``
    says whether a serial workload's answer must equal a fresh engine's
    (see ``run.check_answers``)."""

    kind: str
    sql: str
    table: str
    rows: Tuple[tuple, ...] = ()
    query: str = ""
    fresh_gate: bool = True

    @property
    def label(self) -> str:
        return self.query or self.kind


@dataclass
class TableInput:
    """One table: its schema, every generated row, and the prefix that
    is registered at set-up (the rest arrives through ``INSERT INTO``)."""

    name: str
    schema: Schema
    rows: List[tuple]
    registered: int

    def table(self, count: Optional[int] = None) -> Table:
        """The table holding the first *count* rows (default: the prefix)."""
        count = self.registered if count is None else count
        return Table(self.name, self.schema, self.rows[:count], coerce=False)


@dataclass
class Workload:
    """Generated inputs of one workload for one seed."""

    name: str
    seed: int
    tables: Dict[str, TableInput]
    #: One statement list per client; the serial workloads have one.
    clients: List[List[Statement]]
    served: bool = False
    #: Clear every cache (the Link Index included) before each ``cold``
    #: statement; ``progressive-ingest`` keeps its Link Index instead.
    clears_caches: bool = False

    @property
    def statements(self) -> List[Statement]:
        return [s for client in self.clients for s in client]

    def statement_at(self, index: int) -> Statement:
        """The statement of pass sample *index*: client ``index // 1000``,
        position ``index % 1000``."""
        return self.clients[index // 1000][index % 1000]

    def sizes(self) -> Dict[str, int]:
        return {name: t.registered for name, t in self.tables.items()}

    def statement_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for statement in self.statements:
            counts[statement.kind] = counts.get(statement.kind, 0) + 1
        return counts


def insert_sql(table: str, rows: Sequence[tuple]) -> str:
    rendered = ", ".join(
        "(" + ", ".join(str(Literal(value)) for value in row) + ")" for row in rows
    )
    return f"INSERT INTO {table} VALUES {rendered}"


def _scaled(count: int, scale: float) -> int:
    return max(40, int(count * scale))


def _input(table: Table, extra: int) -> TableInput:
    """Split a generated table into a registered prefix and *extra* rows.

    The generators emit originals first and duplicates last, so the
    suffix holds dirty copies of registered entities: each insert lands
    in existing clusters and invalidates Link-Index state.
    """
    rows = [tuple(row.values) for row in table]
    return TableInput(table.name, table.schema, rows, len(rows) - extra)


def _people(size: int, organisations: Sequence[str], seed: int,
            names: Dict[str, str]) -> Table:
    # As repro.bench.datasets: employers outside OAO keep the join
    # percentage well below 100%.
    unlisted = [f"unlisted employer {i}" for i in range(len(organisations))]
    table, _ = generate_people(
        size, organisations=list(organisations) + unlisted, seed=seed, name=names["PPL"]
    )
    return table


def _oagp(size: int, seed: int, names: Dict[str, str]) -> Tuple[Table, Table]:
    oagv, _ = generate_oagv(130, seed=seed, name=names["OAGV"])
    titles = [row["title"] for row in oagv]
    oagp, _ = generate_oagp(
        size, venue_titles=titles, join_fraction=0.15, seed=seed + 1, name=names["OAGP"]
    )
    return oagp, oagv


def _insert_tail(
    table: TableInput, batch: int, batches: int, refresh_sql: str
) -> List[Statement]:
    """``batches`` × (INSERT INTO the next suffix rows, then the refresh)."""
    out: List[Statement] = []
    start = table.registered
    for _ in range(batches):
        rows = tuple(table.rows[start : start + batch])
        out.append(Statement("insert", insert_sql(table.name, rows), table.name, rows))
        first_new = rows[0][0]
        out.append(
            Statement("refresh", refresh_sql.format(first=first_new - REFRESH_LOOKBACK,
                                                    last=rows[-1][0]), table.name)
        )
        start += batch
    return out


def _cold(queries: Sequence[Tuple[str, str, str]]) -> List[Statement]:
    """Cold statements from (table, query id, sql) triples."""
    return [Statement("cold", sql, table, query=qid) for table, qid, sql in queries]


def _rename(sql: str, names: Dict[str, str]) -> str:
    """Point a workload query at one copy of each table family."""
    for family, name in names.items():
        sql = re.sub(rf"\b{family}\b", name, sql)
    return sql


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The inputs and statement sequence of workload *name* for *seed*.

    Each workload holds ``COPIES`` independently generated copies of its
    tables (``PPL1``, ``PPL2``, ...) in one engine and runs its statement
    sequence on each copy in turn: how much work a seed's data makes
    varies a lot between seeds, and a pass over several copies averages
    that variation out.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    sizes = {t: _scaled(n, scale) for t, n in SIZES[name].items()}
    batch = INSERT_BATCH[name]
    batches = INSERT_BATCHES[name]
    extra = batch * batches
    tables: Dict[str, TableInput] = {}
    statements: List[Statement] = []
    hot: List[Tuple[str, str, str]] = []
    ranges: List[Tuple[str, str]] = []
    inserts: List[Statement] = []
    for copy in range(1, COPIES[name] + 1):
        # Distinct, well-separated generator seeds per table and copy.
        base = 1000 * seed + 100 * copy
        names = {family: f"{family}{copy}" for family in ("PPL", "OAO", "OAGP", "OAGV", "DSD")}

        if name == "sp-cold":
            oagp, _ = _oagp(sizes["OAGP"] + extra, base + 1, names)
            dsd, _ = generate_dsd(sizes["DSD"], seed=base + 3, name=names["DSD"])
            oagp_in = tables[oagp.name] = _input(oagp, extra)
            tables[dsd.name] = _input(dsd, 0)
            queries = [("OAGP", q) for q in sp_queries("OAGP") if q.qid in ("Q1", "Q3", "Q5")]
            queries += [("DSD", q) for q in sp_queries("DSD")]
            statements += _cold([(names[family], f"{family} {q.qid}", _rename(q.sql, names))
                                 for family, q in queries])
            statements += _insert_tail(
                oagp_in, batch, batches,
                f"SELECT DEDUP id, title, venue, field FROM {oagp.name} WHERE id >= {{first}}",
            )

        elif name == "spj-cold":
            oao, _ = generate_organizations(sizes["OAO"], seed=base + 5, name=names["OAO"])
            people = _people(sizes["PPL"] + extra, [r["name"] for r in oao], base + 7, names)
            oagp, oagv = _oagp(sizes["OAGP"], base + 9, names)
            people_in = tables[people.name] = _input(people, extra)
            for table in (oao, oagp, oagv):
                tables[table.name] = _input(table, 0)
            queries = [
                (people.name, join_query("PPL-OAO", "Q6a", 0.07)),
                (people.name, join_query("PPL-OAO", "Q7a", 0.75)),
                (oagp.name, join_query("OAGP-OAGV", "Q6b", 0.07)),
                (oagp.name, join_query("OAGP-OAGV", "Q7b", 0.75)),
            ]
            refresh = _rename(
                "SELECT DEDUP PPL.id, PPL.surname, OAO.name, OAO.country FROM PPL "
                "JOIN OAO ON PPL.organisation = OAO.name WHERE PPL.id >= {first}",
                names,
            )
            statements += _cold([(t, q.qid, _rename(q.sql, names)) for t, q in queries])
            statements += _insert_tail(people_in, batch, batches, refresh)

        elif name == "progressive-ingest":
            oao, _ = generate_organizations(200, seed=base + 11, name=names["OAO"])
            people = _people(sizes["PPL"] + extra, [r["name"] for r in oao], base + 13, names)
            people_in = tables[people.name] = _input(people, extra)
            # The later ranges and the warm replays are answered from
            # Link-Index links resolved for another range; under
            # meta-blocking ALL that makes them differ from a fresh engine
            # on some seeds, so they are gated against a replay instead.
            queries = range_queries("PPL", people_in.registered)
            for kind in ("cold", "warm"):
                statements += [
                    Statement(kind, _rename(q.sql, names), people.name,
                              query=f"{q.qid} {kind}", fresh_gate=kind == "cold" and i == 0)
                    for i, q in enumerate(queries)
                ]
            # Each refresh is the full-range requery over everything ingested.
            statements += _insert_tail(
                people_in, batch, batches,
                f"SELECT DEDUP id, given_name, surname, state FROM {people.name} "
                "WHERE id <= {last}",
            )

        else:  # served
            oao, _ = generate_organizations(200, seed=base + 15, name=names["OAO"])
            people = _people(sizes["PPL"] + extra, [r["name"] for r in oao], base + 17, names)
            people_in = tables[people.name] = _input(people, extra)
            columns = "id, given_name, surname, state"
            hot += [(people.name, q.qid, _rename(q.sql, names)) for q in sp_queries("PPL")[0:5:4]]
            ranges.append((people.name, f"SELECT DEDUP {columns} FROM {people.name} "
                                        "WHERE id BETWEEN {low} AND {high}"))
            inserts += _insert_tail(
                people_in, batch, batches,
                f"SELECT DEDUP {columns} FROM {people.name} WHERE id >= {{first}}",
            )

    if name != "served":
        return Workload(name, seed, tables, [statements],
                        clears_caches=name in ("sp-cold", "spj-cold"))
    return Workload(name, seed, tables, _served_clients(seed, tables, hot, ranges, inserts),
                    served=True)


def _served_clients(seed, tables, hot, ranges, inserts) -> List[List[Statement]]:
    """Two closed-loop clients: ~half hot repeated selections, ~half
    distinct id ranges, and on client 0 one insert + refresh every ~24
    statements across both clients (client 0 owns the writes, so each
    refresh follows its own insert)."""
    rng = random.Random(1000 * seed + 19)
    clients: List[List[Statement]] = [[], []]
    batches = len(inserts) // 2
    every = SERVED_STATEMENTS_PER_CLIENT // (batches + 1)
    for client in (0, 1):
        out = clients[client]
        while len(out) < SERVED_STATEMENTS_PER_CLIENT:
            if client == 0 and inserts and len(out) % every == every - 1:
                out.extend(inserts[:2])
                inserts = inserts[2:]
            elif rng.random() < 0.5:
                table, qid, sql = rng.choice(hot)
                out.append(Statement("warm", sql, table, query=qid))
            else:
                table, template = rng.choice(ranges)
                low = rng.randint(1, tables[table].registered - SERVED_RANGE_WIDTH)
                sql = template.format(low=low, high=low + SERVED_RANGE_WIDTH - 1)
                out.append(Statement("cold", sql, table, query="range"))
        out.extend(inserts if client == 0 else [])
    return clients
