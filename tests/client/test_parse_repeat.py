"""Parsing a repeated workload costs O(columns), not O(data).

``ws.source`` records the source vertex's size; a column's size is
measured once and kept on the ``Column``, so a second parse over the same
source frames walks no element of any object column.
"""

import numpy as np

from repro.client.parser import parse_workload
from repro.dataframe import Column, DataFrame

from ..conftest import Counted


def sources():
    names = np.empty(40, dtype=object)
    names[:] = [Counted(f"name-{i}") for i in range(40)]
    rng = np.random.default_rng(0)
    train = DataFrame([Column("name", names), Column("x", rng.normal(size=40))])
    lookup = DataFrame([Column("name", names.copy()), Column("w", rng.normal(size=40))])
    return {"train": train, "lookup": lookup}


def script(ws, frames):
    train = ws.source("train", frames["train"])
    lookup = ws.source("lookup", frames["lookup"])
    train[["x"]].describe().terminal()
    lookup[["name", "w"]].terminal()


def test_second_parse_of_the_same_sources_walks_no_element():
    Counted.walks = 0
    frames = sources()

    first = parse_workload(script, frames)
    assert Counted.walks == 80  # two object columns of 40, once each

    second = parse_workload(script, frames)
    assert Counted.walks == 80
    for vertex_id in (v.vertex_id for v in first.dag.vertices()):
        mine, theirs = first.dag.vertex(vertex_id), second.dag.vertex(vertex_id)
        assert (mine.size, mine.meta) == (theirs.size, theirs.meta)

    # a projection of a measured source shares its columns, hence its sizes
    assert frames["train"][["name"]].nbytes == frames["train"].column("name").nbytes
    assert Counted.walks == 80
