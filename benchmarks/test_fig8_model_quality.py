"""Figure 8 — effect of model quality on materialization (OpenML).

Paper shape: (a) in the model-benchmarking scenario, CO's reuse of the
gold-standard workload's artifacts beats re-running it from scratch
(paper: ~5x).  (b) with a one-artifact budget, larger alpha materializes
the gold-standard model sooner, so its cumulative-run-time delta to the
alpha=1 line plateaus earlier and lower.  Figure 8b runs on modeled compute
seconds (``fig8b_alpha_sweep``'s cost model): HM's one-artifact choice
reads recorded compute seconds, so on measured ones its verdict followed
the machine.  The measured series is reported beside it.
"""

from conftest import FULL_SCALE, report, scaled

from repro.experiments import fig8a_model_benchmarking, fig8b_alpha_sweep
from repro.workloads.openml import sample_pipeline_specs


def test_fig8a_model_benchmarking(benchmark, credit_sources):
    specs = sample_pipeline_specs(scaled(300, minimum=30), seed=7)
    result = benchmark.pedantic(
        fig8a_model_benchmarking,
        args=(specs, credit_sources, 10_000_000),
        rounds=1,
        iterations=1,
    )

    report("", "== Figure 8a: model-benchmarking cumulative run-time (seconds) ==")
    marks = [len(specs) // 4, len(specs) // 2, 3 * len(specs) // 4, len(specs) - 1]
    report(f"{'workload':>9} " + " ".join(f"{'#' + str(m):>8}" for m in marks))
    report(f"{'CO':>9} " + " ".join(f"{result.cumulative_co[m]:>8.2f}" for m in marks))
    report(f"{'OML':>9} " + " ".join(f"{result.cumulative_oml[m]:>8.2f}" for m in marks))
    ratio = result.cumulative_oml[-1] / max(result.cumulative_co[-1], 1e-9)
    report(f"    paper: ~5x improvement; ours: {ratio:.1f}x")

    if FULL_SCALE:
        assert result.cumulative_co[-1] < result.cumulative_oml[-1]
        assert ratio > 1.5, "reusing the gold standard must clearly beat re-running it"


def test_fig8b_alpha_sweep(benchmark, credit_sources):
    specs = sample_pipeline_specs(scaled(150, minimum=20), seed=7)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    result = benchmark.pedantic(
        fig8b_alpha_sweep,
        args=(specs, credit_sources, alphas),
        rounds=1,
        iterations=1,
    )

    marks = [len(specs) // 4, len(specs) // 2, len(specs) - 1]
    header = f"{'alpha':>6} " + " ".join(f"{'#' + str(m):>8}" for m in marks)
    report("", "== Figure 8b: cumulative run-time delta vs alpha=1 (modeled seconds) ==")
    report(header + "  artifact kept from")
    finals = {}
    for alpha in alphas:
        deltas = result.delta_vs_alpha1(alpha)
        finals[alpha] = deltas[-1]
        chosen_at = result.chosen_at[alpha]
        report(
            f"{alpha:>6.2f} "
            + " ".join(f"{deltas[m]:>8.3f}" for m in marks)
            + f"  #{chosen_at}"
        )
        benchmark.extra_info[f"vc_exact_fig8b_chosen_at_alpha_{alpha * 100:03.0f}"] = (
            chosen_at
        )
    report("", "== Figure 8b, measured: the same runs' delta vs alpha=1 (seconds) ==")
    report(header)
    for alpha in alphas:
        deltas = result.delta_vs_alpha1(alpha, measured=True)
        report(f"{alpha:>6.2f} " + " ".join(f"{deltas[m]:>8.3f}" for m in marks))

    assert finals[1.0] == 0.0
    if FULL_SCALE:
        # quality-aware materialization (alpha >= 0.5) must not lose to
        # quality-blind materialization (alpha = 0) in this scenario; the
        # finals are modeled seconds, so the verdict does not follow the
        # machine's or the training code's speed
        assert min(finals[0.75], finals[0.5]) <= finals[0.0] + 1e-6
        # the paper's shape: a larger alpha ends no higher
        assert all(
            finals[high] <= finals[low] + 1e-6
            for low, high in zip(alphas, alphas[1:])
        )
