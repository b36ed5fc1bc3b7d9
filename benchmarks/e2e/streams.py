"""Seeded repeat / modify / fresh script streams.

The event kinds are those of ``simulate_community``'s ``EventMix``: a
tenant *repeats* a script somebody already ran, runs a *modified* copy
(same head, new tail — how a Kaggle user edits a copied kernel), or
publishes a *fresh* one.  The mix is fixed at 0.5 / 0.4 / 0.1 and is
realised exactly: kinds are dealt in shuffled blocks of ten, so a seed
changes tags, depths and order, never the share of each kind.

A script is a 2-6 step chain of :class:`ops.FeatureOp` over one source
frame, optionally closed by a cross-group :class:`ops.JoinOp`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from ops import FUNCTIONS, SOURCE_COLUMNS, FeatureOp, JoinOp

__all__ = ["MIX", "ScriptSpec", "generate_stream", "realised_mix", "to_script"]

#: target share of each event kind
MIX = {"repeat": 0.5, "modify": 0.4, "fresh": 0.1}
_BLOCK = ("repeat",) * 5 + ("modify",) * 4 + ("fresh",)
_MIN_DEPTH, _MAX_DEPTH = 2, 6
_FUNCTION_NAMES = tuple(FUNCTIONS)


@dataclass(frozen=True)
class ScriptSpec:
    """One script of the stream, as plain data."""

    kind: str
    #: lineage group: index of the source frame the chain starts from
    group: int
    #: source column the first step reads; later steps read their predecessor
    column: str
    #: (tag, function) per feature step
    steps: tuple[tuple[int, str], ...]
    #: tag of the closing cross-group join, or None
    join_tag: int | None = None


def generate_stream(
    seed: int, count: int, groups: int = 1, join_share: float = 0.0
) -> list[ScriptSpec]:
    """``count`` scripts; the same arguments give the identical list.

    ``join_share`` of the *modify* events (only with ``groups > 1``) end
    in a join with the next group's source.
    """
    rng = random.Random(seed)

    def new_steps(length: int) -> tuple[tuple[int, str], ...]:
        return tuple(
            (rng.getrandbits(32), rng.choice(_FUNCTION_NAMES)) for _ in range(length)
        )

    def fresh() -> ScriptSpec:
        return ScriptSpec(
            kind="fresh",
            group=rng.randrange(groups),
            column=rng.choice(SOURCE_COLUMNS),
            steps=new_steps(rng.randint(_MIN_DEPTH, _MAX_DEPTH)),
        )

    # the stream opens with one fresh script: there is nothing to repeat yet
    stream = [fresh()]
    published = [stream[0]]
    while len(stream) < count:
        block = list(_BLOCK)
        rng.shuffle(block)
        for kind in block[: count - len(stream)]:
            if kind == "fresh":
                spec = fresh()
            elif kind == "repeat":
                spec = replace(rng.choice(published), kind="repeat")
            else:
                base = rng.choice(published)
                kept = rng.randint(1, len(base.steps) - 1)
                tail = new_steps(rng.randint(1, _MAX_DEPTH - kept))
                joined = groups > 1 and rng.random() < join_share
                spec = replace(
                    base,
                    kind="modify",
                    steps=base.steps[:kept] + tail,
                    join_tag=rng.getrandbits(32) if joined else None,
                )
            stream.append(spec)
            if kind != "repeat":
                published.append(spec)
    return stream


def realised_mix(stream: Sequence[ScriptSpec]) -> dict[str, float]:
    """Share of each event kind in ``stream``."""
    return {
        kind: sum(1 for spec in stream if spec.kind == kind) / len(stream)
        for kind in MIX
    }


def to_script(
    spec: ScriptSpec, source_names: Sequence[str]
) -> Callable[[Any, Mapping[str, Any]], None]:
    """The workload script (``script(workspace, sources)``) of ``spec``."""

    def script(workspace: Any, sources: Mapping[str, Any]) -> None:
        name = source_names[spec.group]
        node = workspace.source(name, sources[name])
        column = spec.column
        for tag, function in spec.steps:
            operation = FeatureOp(tag, column, function)
            node = node.add(operation)
            column = operation.output_column
        if spec.join_tag is not None:
            other = source_names[(spec.group + 1) % len(source_names)]
            node = node.add(
                JoinOp(spec.join_tag), workspace.source(other, sources[other])
            )
        node.terminal()

    return script
