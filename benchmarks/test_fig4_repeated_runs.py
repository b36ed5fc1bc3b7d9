"""Figure 4 — repeated executions of workloads 1-3 (CO vs HL vs KG).

Paper shape: run 1 is comparable across systems (CO/HL slightly ahead on
W2/W3 thanks to local pruning of redundant operations); run 2 drops by an
order of magnitude for CO and HL while KG stays flat.
"""

import numpy as np
from conftest import FULL_SCALE, report

from repro.dataframe import Column, DataFrame
from repro.experiments import fig4_repeated_runs, make_optimizer, scaled_budget
from repro.workloads.kaggle import KAGGLE_WORKLOADS


class CountingStr(str):
    """A string that counts how often a size measure walks over it
    (``Column.nbytes`` sums ``len(str(v))`` over an object column)."""

    walks = 0

    def __str__(self):
        CountingStr.walks += 1
        return str.__str__(self)


def counting_sources(sources):
    """The same tables under fresh, unmeasured columns of counting strings."""
    counted = {}
    for table, frame in sources.items():
        columns = []
        for name in frame.columns:
            column = frame.column(name)
            if column.dtype == object:
                values = np.empty(len(column), dtype=object)
                values[:] = [
                    CountingStr(v) if isinstance(v, str) else v for v in column.values
                ]
                column = Column(name, values)
            columns.append(column)
        counted[table] = DataFrame(columns)
    return counted


def repeat_pass_element_walks(sources, budget):
    """Element walks in the first and in the second pass of the figure's CO
    runs.  The second pass is the paper's repeated execution: it must cost
    planner overhead only, so no size is measured twice."""
    counted = counting_sources(sources)
    optimizer = make_optimizer("SA", budget, reuse="LN")
    walks = []
    for _ in range(2):
        CountingStr.walks = 0
        for workload_id in (1, 2, 3):
            optimizer.run_script(KAGGLE_WORKLOADS[workload_id], counted)
        walks.append(CountingStr.walks)
    return walks


def test_fig4_repeated_executions(benchmark, hc_sources, hc_total):
    budget = scaled_budget(16, hc_total)
    result = benchmark.pedantic(
        fig4_repeated_runs, args=(hc_sources, budget), rounds=1, iterations=1
    )

    first_walks, repeat_walks = repeat_pass_element_walks(hc_sources, budget)
    benchmark.extra_info["vc_exact_repeat_parse_element_walks"] = repeat_walks
    report(
        "",
        f"object-column elements walked to measure sizes: first pass "
        f"{first_walks}, repeated pass {repeat_walks}",
    )
    assert first_walks > 0  # the counting strings are in the measured path
    assert repeat_walks == 0

    report("", "== Figure 4: repeated executions of Kaggle workloads 1-3 (seconds) ==")
    report(f"{'workload':>9} {'system':>7} {'run 1':>8} {'run 2':>8}")
    for workload_id, systems in result.times.items():
        for system, runs in systems.items():
            report(
                f"{'W' + str(workload_id):>9} {system:>7} "
                f"{runs[0]:>8.3f} {runs[1]:>8.3f}"
            )

    for workload_id, systems in result.times.items():
        # CO's second run must be at least an order of magnitude faster
        assert systems["CO"][1] < systems["CO"][0] / 10.0
        assert systems["HL"][1] < systems["HL"][0] / 10.0
        # KG gains nothing from repetition
        assert systems["KG"][1] > systems["CO"][1]
        if FULL_SCALE:
            assert systems["KG"][1] > 0.5 * systems["KG"][0]
