"""sha256 digests of the detector's outputs, for showing that a change of
the code keeps its behaviour byte for byte.

For each perfbench workload it prints one sha256 of the canonical JSON of
the workload's parsed config, on a line of its own, so a change to the
config schema alone shows there and nowhere else. Then, for each seed, it
replays the workload's streams (``perfbench/workloads.py``) through
``run_stream`` with that config, and prints one sha256 over the canonical
JSON of every stream's detection events and iteration records, with
``elapsed_s``, the one wall-clock field, dropped. It also prints one
sha256 per seed of the ``standard_script`` series of every preset, inputs,
outputs and truth.
Two checkouts behave the same on these inputs when they print the same
lines. Not collected by pytest. Run from the repository root:

    PYTHONPATH=src python tests/record_digest.py --seeds 0-3

With ``--against path/to/other/src`` it also runs itself in a child process
with that ``src`` alone on ``PYTHONPATH``, checks that the child imported
``gocpd`` from there, prints each line on which the two sides differ, and
exits 1 if any does:

    PYTHONPATH=src python tests/record_digest.py --seeds 0-3 --against ../other/src

Each side names the ``gocpd`` it imported on stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, streams  # noqa: E402

import gocpd  # noqa: E402
from gocpd.datagen import FACTOR_TABLES, sample_piecewise_gp, standard_script  # noqa: E402
from gocpd.detector import DetectorConfig, run_stream  # noqa: E402
from gocpd.fileio import canonical_json  # noqa: E402


def seed_list(text: str) -> list[int]:
    """``"0-3"`` or ``"0,2,5"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def workload_digest(name: str, config: DetectorConfig, seed: int) -> tuple[str, int, int]:
    """sha256 of the workload's events and records at ``seed``, with their counts."""
    digest, n_events, n_records = hashlib.sha256(), 0, 0
    for i, (window, _) in enumerate(streams(name, seed)):
        events, records = run_stream(window, config)
        lines = [{"kind": "meta", "stream": i}]
        lines += [e.to_dict() for e in events]
        lines += [{k: v for k, v in r.items() if k != "elapsed_s"} for r in records]
        for line in lines:
            digest.update((canonical_json(line) + "\n").encode())
        n_events, n_records = n_events + len(events), n_records + len(records)
    return digest.hexdigest(), n_events, n_records


def script_digest(seed: int) -> str:
    """sha256 of every preset's ``standard_script`` series at ``seed``."""
    digest = hashlib.sha256()
    for vary in FACTOR_TABLES:
        window, truth = sample_piecewise_gp(standard_script(vary, seed=seed))
        digest.update(window.inputs.tobytes() + window.outputs.tobytes())
        digest.update(canonical_json(truth).encode())
    return digest.hexdigest()


def digest_lines(args) -> Iterator[str]:
    """The report's lines: per workload its config, then one per seed; then
    one per script seed."""
    for name in args.workloads.split(","):
        config = DetectorConfig.from_dict(WORKLOADS[name]["config"])
        config_sha = hashlib.sha256(canonical_json(config.to_dict()).encode()).hexdigest()
        yield f"{name} config sha256={config_sha}"
        for seed in args.seeds:
            hexdigest, n_events, n_records = workload_digest(name, config, seed)
            yield (f"{name} seed={seed} events={n_events} records={n_records} "
                   f"sha256={hexdigest}")
    for seed in args.script_seeds:
        yield f"standard_script seed={seed} sha256={script_digest(seed)}"


ORIGIN = "gocpd imported from "


def beside_child(argv: list[str], other_src: Path, ours: Callable) -> tuple:
    """Run ``python argv`` with ``other_src`` alone on ``PYTHONPATH`` while
    ``ours()`` runs here; return what ``ours`` returned and the child's stdout.
    Exit unless the child succeeded and named ``other_src``'s ``gocpd`` as the
    one it imported, on an ``ORIGIN`` line of its stderr."""
    child = subprocess.Popen([sys.executable, *argv],
                             env={**os.environ, "PYTHONPATH": str(other_src)},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    here = ours()
    theirs, errors = child.communicate()
    origins = [line[len(ORIGIN):] for line in errors.splitlines() if line.startswith(ORIGIN)]
    if child.returncode != 0 or origins != [str(other_src / "gocpd")]:
        sys.exit(f"the run on {other_src} failed or did not import its gocpd:\n{errors}")
    return here, theirs


def compare_against(args, other_src: Path) -> int:
    """Run this report on ``other_src`` in a child process beside this one's;
    print the differing lines and return 1 if there are any."""
    argv = [__file__, "--workloads", args.workloads,
            "--seeds", ",".join(map(str, args.seeds)),
            "--script-seeds", ",".join(map(str, args.script_seeds))]
    ours, theirs = beside_child(argv, other_src, lambda: list(digest_lines(args)))
    pairs = list(zip_longest(theirs.splitlines(), ours, fillvalue="(no line)"))
    differing = [(there, here) for there, here in pairs if there != here]
    for there, here in differing:
        print(f"- {there}\n+ {here}", flush=True)
    print(f"{len(differing)} of {len(pairs)} lines differ "
          f"(-: {other_src}, +: {Path(gocpd.__file__).parent.parent})")
    return int(bool(differing))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=[0], help='e.g. "0-3" or "0,2"')
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated perfbench workloads (default: all)")
    parser.add_argument("--script-seeds", type=seed_list, default=[0, 1, 2])
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="compare with a run on another checkout's src directory")
    args = parser.parse_args()
    print(f"{ORIGIN}{Path(gocpd.__file__).parent}", file=sys.stderr, flush=True)
    if args.against is not None:
        sys.exit(compare_against(args, args.against.resolve()))
    for line in digest_lines(args):
        print(line, flush=True)


if __name__ == "__main__":
    main()
