"""Scalability of the server as the Experiment Graph grows.

Not a paper figure — this quantifies the claim behind Sections 5.2/6.1:
the optimizer must keep up with the high rate of incoming workloads in a
collaborative environment.  We stream OpenML pipelines through one EG and
track the *server-side* overhead (reuse planning + updater/materializer)
per workload as the graph grows — in seconds, which only a loose bound can
gate, and as an order (ROADMAP item 7): the vertices ``select`` scores per
merge follow what the merge dirtied, never the EG, and at full scale its
seconds per merge may at most double while the EG grows tenfold.
"""

import time

from conftest import FULL_SCALE, report, scaled

from repro.experiments import make_optimizer
from repro.workloads.openml import (
    generate_credit_g,
    make_pipeline_script,
    sample_pipeline_specs,
)


class _SameCostEveryRun:
    """Cost model: an operation takes what it is declared to take, so a
    re-executed vertex is not re-timed and dirties no descendant."""

    def record(self, operation, measured_seconds: float) -> float:
        return 0.01


def _stream(optimizer, specs, sources):
    """Run the pipelines through one EG; per workload ``(eg vertices,
    server seconds, select seconds, vertices select scored)``."""
    materializer = optimizer.materializer
    select, select_seconds = materializer.select, []

    def timed_select(eg, available):
        started = time.perf_counter()
        chosen = select(eg, available)
        select_seconds.append(time.perf_counter() - started)
        return chosen

    materializer.select = timed_select
    index = optimizer.eg.utility_index
    samples, flips = [], 0
    for spec in specs:
        script = make_pipeline_script(spec)
        started = time.perf_counter()
        report_one = optimizer.run_script(script, sources)
        wall = time.perf_counter() - started
        # a merge scores what its union dirtied and what the previous merge
        # stored or evicted — whatever the cost model, never the EG
        assert materializer.last_scored <= index.last_changed + flips or not samples
        merged = optimizer.last_update_report
        flips = len(merged.newly_materialized) + len(merged.evicted)
        samples.append(
            (
                optimizer.eg.num_vertices,
                wall - report_one.compute_time,
                select_seconds[-1],
                materializer.last_scored,
            )
        )
    assert materializer.routes["shortcut"] == len(specs)  # 50 MB never binds
    return samples


def test_server_overhead_vs_eg_size(benchmark):
    sources = generate_credit_g(n_rows=300, seed=5)
    n_pipelines = scaled(240, minimum=40)
    specs = sample_pipeline_specs(n_pipelines, seed=13)

    def run():
        return _stream(make_optimizer("SA", 50_000_000), specs, sources)

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    quarter = len(samples) // 4
    first = sum(s[1] for s in samples[:quarter]) / quarter
    last = sum(s[1] for s in samples[-quarter:]) / quarter
    report(
        "",
        "== Scalability: server overhead per workload as the EG grows ==",
        f"  EG grows {samples[0][0]} -> {samples[-1][0]} vertices over "
        f"{len(samples)} workloads",
        f"  mean server overhead: first quartile {first * 1000:.1f} ms, "
        f"last quartile {last * 1000:.1f} ms ({last / max(first, 1e-9):.1f}x growth)",
    )

    assert samples[-1][0] > samples[0][0]
    # overhead may grow with the EG, but must stay interactive
    assert last < 0.5, "per-workload server overhead must stay well below 500 ms"


def test_select_follows_the_merge_not_the_eg(benchmark):
    """With run-to-run timing noise out of the picture (measured times
    re-time a shared prefix and with it every descendant's ``C_r`` — dirt
    that is real), what ``select`` does per merge stays flat as the EG grows."""
    sources = generate_credit_g(n_rows=300, seed=5)
    specs = sample_pipeline_specs(scaled(240, minimum=40), seed=13)

    def run():
        optimizer = make_optimizer("SA", 50_000_000, cost_model=_SameCostEveryRun())
        return _stream(optimizer, specs, sources)

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    final_vertices = samples[-1][0]
    quarter = len(samples) // 4
    scored = sorted(s[3] for s in samples[-quarter:])
    # windows of ten merges: at a tenth of the final EG, and at its end
    small = max(1, next(i for i, s in enumerate(samples) if s[0] * 10 >= final_vertices))
    select_small = sum(s[2] for s in samples[small : small + 10]) / 10
    select_large = sum(s[2] for s in samples[-10:]) / 10
    report(
        "",
        "== Scalability: what select does per merge as the EG grows ==",
        f"  scores {scored[len(scored) // 2]} vertices per merge in the last quartile "
        f"(median; at most {scored[-1]}) of {final_vertices}",
        f"  {select_small * 1e6:.0f} us per merge at {samples[small][0]} vertices, "
        f"{select_large * 1e6:.0f} us at {final_vertices}",
    )
    assert scored[-1] * 4 < final_vertices
    benchmark.extra_info["vc_exact_select_scored_last_quartile"] = sum(scored)
    if FULL_SCALE:
        assert select_large <= 2 * select_small, "select seconds must not follow the EG"
