"""A scaled-down run of the paper's wetlab evaluation (Sections 6-8).

Builds the Alice setup — a text file split into 256-byte paragraph blocks
behind one primer pair, with updates synthesized by a second vendor at
50 000x concentration — then runs, on the wetlab channel simulator:

* pool mixing (Figure 10),
* whole-partition random access (Figure 9a),
* precise block access with an elongated primer (Figure 9b),
* decoding the updated block from a few hundred reads (Section 8).

The default scale (120 blocks, reduced read counts) finishes in well under
a minute; pass ``--full`` to run the paper-scale 587-block setup (takes a
few minutes) — this is exactly what ``benchmarks/`` does.

Run with ``python examples/alice_wetlab_evaluation.py [--full]``.
"""

import argparse

from repro.experiments.alice import AliceExperiment, AliceExperimentConfig


def build_config(full_scale: bool) -> AliceExperimentConfig:
    if full_scale:
        return AliceExperimentConfig(baseline_reads=20_000, precise_reads=8_000)
    return AliceExperimentConfig(
        block_count=120,
        twist_updated_blocks=(17, 44),
        idt_updated_blocks=(71, 103),
        baseline_reads=8_000,
        precise_reads=4_000,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run the paper-scale 587-block setup")
    arguments = parser.parse_args()

    config = build_config(arguments.full)
    experiment = AliceExperiment(config)
    target = 531 if arguments.full else 71
    print(f"partition: {experiment.partition.block_count} blocks, "
          f"{len(experiment.partition.all_molecules())} molecules")

    mixing = experiment.run_mixing("amplify-then-measure")
    print("\n[Figure 10] mixing the 50 000x-concentrated update pool:")
    print(f"  per-molecule update/original concentration after mixing: "
          f"{mixing.report.concentration_ratio:.2f}x")

    baseline = experiment.run_baseline_access(target)
    print("\n[Figure 9a] whole-partition random access:")
    print(f"  blocks represented: {len(baseline.distribution.reads_per_block)}")
    print(f"  target block {target} is {baseline.target_fraction:.2%} of the readout")

    precise = experiment.run_precise_access(target)
    print("\n[Figure 9b] precise access with the elongated primer:")
    print(f"  reads with the elongated prefix: {precise.on_prefix_fraction:.0%}")
    print(f"  on-target among prefix reads:    {precise.on_target_given_prefix:.0%}")
    print(f"  on-target overall:               {precise.on_target_fraction:.0%}")
    improvement = precise.on_target_fraction / baseline.target_fraction
    print(f"  useful-read improvement over baseline: {improvement:.0f}x")

    decoding = experiment.run_decoding(precise, reads_to_use=300)
    print("\n[Section 8] decoding from few reads:")
    print(f"  reads used: {decoding.reads_used}, "
          f"clusters formed: {decoding.report.clusters_total}, "
          f"strands recovered: {decoding.report.strands_recovered}")
    print(f"  decoded correctly with update applied: {decoding.correct}")


if __name__ == "__main__":
    main()
