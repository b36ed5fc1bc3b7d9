"""Self-tests of the benchmark's own machinery.

    python3 benchmarks/e2e/selftest.py

* the script stream is deterministic in its seed and realises the
  0.5 / 0.4 / 0.1 repeat / modify / fresh mix within ±0.03;
* failures are counted, not hidden: an operation that raises and a
  divergent re-commit both end up in ``failed`` (so "a larger share of
  operations failed" is measurable), and the replay check notices a
  commit the client was acknowledged but the EG does not hold.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

MIX_TOLERANCE = 0.03


def check_streams() -> None:
    from streams import MIX, generate_stream, realised_mix

    for seed in range(10):
        stream = generate_stream(seed, 1500, groups=2, join_share=0.15)
        assert stream == generate_stream(seed, 1500, groups=2, join_share=0.15), seed
        assert stream[:700] == generate_stream(seed, 700, groups=2, join_share=0.15), seed
        mix = realised_mix(stream)
        for kind, share in MIX.items():
            assert abs(mix[kind] - share) <= MIX_TOLERANCE, (seed, kind, mix)
        depths = {len(spec.steps) for spec in stream}
        assert depths <= set(range(2, 7)) and len(depths) > 1, (seed, depths)
    tags = [
        {tag for spec in generate_stream(seed, 200) for tag, _ in spec.steps}
        for seed in (1, 2)
    ]
    assert not tags[0] & tags[1], "two seeds share operation tags"


def check_failure_accounting(workdir: Path) -> None:
    from harness import StreamInputs, StreamWorkload, replay_matches
    from ops import FeatureOp
    from repro.client.parser import parse_workload
    from repro.dataframe import DataFrame
    from repro.transport.wire import encode_workload
    from speed import SpeedProbe

    class RaisingOp(FeatureOp):
        def run(self, underlying_data: DataFrame) -> DataFrame:
            raise ArithmeticError("injected failure")

    raising_at, divergent_at = 6, 9

    class Faulty(StreamWorkload):
        """``stream_tcp`` with two scripts replaced by injected faults."""

        def run_position(self, index: int, position: int):
            if position == raising_at:

                def script(workspace, sources):
                    node = workspace.source("stream", sources["stream"])
                    node.add(RaisingOp(1, "x0", "tanh")).terminal()

                return self.runners[index].run_script(script, self.sources, label="x")
            if position == divergent_at:
                # re-commit script 0 with one artifact swapped for a frame of
                # another size: the same content address, different content
                workspace = parse_workload(
                    self.script_for(0), self.sources, cost_model=self.clients[0].cost_model
                )
                dag = workspace.dag
                self.clients[index].executor.execute(dag)
                vertex = dag.vertex(dag.terminals[0])
                vertex.record_result(vertex.data.head(100), compute_time=0.05)
                return self.clients[index].request(
                    {
                        "op": "commit",
                        "session_id": self.clients[index].session_id,
                        "label": "divergent",
                        "workload": encode_workload(dag, include_payloads=True),
                    }
                )
            return super().run_position(index, position)

    probe = SpeedProbe()
    workload = Faulty("stream_tcp", StreamInputs.prepare(7, False, probe), workdir, None)
    try:
        workload.setup(probe)
        drive = workload.drive(40, probe)
        workload.finish()
        problems = workload.check(drive)
    finally:
        workload.teardown()
    assert drive.attempted == 40
    assert drive.failed == 2, (drive.raised, drive.refused, workload.drive_problems)
    assert drive.failed / drive.attempted > 0.0
    raised = [problem for problem in problems if "raised" in problem]
    assert len(raised) == 2 and len(problems) == 2, problems
    assert any("ArithmeticError" in problem for problem in raised), raised
    assert any("ArtifactDivergenceError" in problem for problem in raised), raised

    # a commit acknowledged to a client but missing from the EG: replaying
    # the full log no longer reproduces an EG built without its last entry
    labels = workload.committed_labels()
    assert replay_matches(
        workload.final_eg, labels, workload.stream, workload.source_names,
        workload.sources, workload.replay_optimizer,
    )  # fmt: skip
    assert not replay_matches(
        workload.final_eg, labels[:-1], workload.stream, workload.source_names,
        workload.sources, workload.replay_optimizer,
    )  # fmt: skip


def main() -> int:
    check_streams()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work", prefix="selftest-"))
    try:
        check_failure_accounting(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("benchmarks/e2e self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
