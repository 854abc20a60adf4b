"""Regenerate reference.json: digests of the order-independent results of
every census query and every cli command the workloads can draw.

    python3 lrbench/record_reference.py

Run it only on a commit whose results are trusted; the benchmark compares
every later op against these digests.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    census = {}
    for shape, p in wl.CENSUS_POOL:
        result = wl.oracle.enumerate_submodules(wl.tb.Shape(*shape), p,
                                                guard=wl.oracle.DEFAULT_GUARD)
        census[wl.census_key(shape, p)] = wl.digest(wl.census_summary(result))
    cli = {}
    for kind, argvs in wl.cli_candidates().items():
        for argv in argvs:
            code, out = wl.run_cli_in_process(argv)
            if code != 0:
                print(f"{kind}: exit {code} for {argv}", file=sys.stderr)
                return 1
            cli[wl.cli_key(argv)] = wl.cli_output_digest(argv, out.encode())
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"census": census, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(census)} census and {len(cli)} cli digests written to {wl.REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
