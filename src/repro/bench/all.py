"""Run every experiment harness and archive the results.

``python -m repro.bench.all [--smoke]`` regenerates:

* ``results_figure5.md`` — the Figure 5 throughput sweep,
* ``results_figure6.md`` — the Figure 6 utilization sweep,
* ``results_ablations.md`` — ablations A (masking), B (scheduler),
  C (lowering optimizations), D (top-of-stack caching).

These archived files are the measured side of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument(
        "--out-dir", default=".", help="directory for results_*.md files"
    )
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    from repro.bench import ablations, figure5, figure6

    ablation_config = (
        ablations.AblationConfig.smoke() if args.smoke else ablations.AblationConfig()
    )

    jobs = [
        (
            "results_figure5.md",
            lambda: figure5.run_figure5(
                figure5.Figure5Config.smoke() if args.smoke else figure5.Figure5Config()
            ).render(),
        ),
        (
            "results_figure6.md",
            lambda: figure6.run_figure6(
                figure6.Figure6Config.smoke() if args.smoke else figure6.Figure6Config()
            ).render(),
        ),
        (
            "results_ablations.md",
            lambda: "\n\n".join(
                ablations.render(fn(ablation_config), title)
                for fn, title in ablations.ABLATIONS
            ),
        ),
    ]
    for filename, job in jobs:
        start = time.perf_counter()
        text = job()
        (out_dir / filename).write_text(text + "\n")
        print(f"wrote {filename} ({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
