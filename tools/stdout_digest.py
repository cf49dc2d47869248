"""Digest of the CLI's stdout on a fixed command list, for byte-identity checks.

    python3 tools/stdout_digest.py TREE > digests.txt

TREE is a checkout of this repository; its ``src/berezinlab`` runs, in
process through perfbench's ``run_cli``, each command of the list, and
the tool prints one line ``sha256 exit-code argv`` per command; stderr
passes through.  Two trees whose lines agree printed the same bytes on
stdout for every command.  The list holds the README's ``berezinlab``
examples, the commands of perfbench's cli-session for seeds 1-3, the
three symbol ``decay`` fields at ``--kmax 39`` for three symbols, and a
few commands that reach the commutator defect, the series route and
the quadrature Toeplitz builder with other inputs.  It reads
``perfbench/`` and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import sys

SEEDS = (1, 2, 3)
DECAY_FIELDS = ("berezin-minus-symbol", "invariant-laplacian", "localization")
DECAY_SYMBOLS = ("2,0:1;0,1:1i", "1,1:1", "3,0:1e5;0,2:1e5")
EXTRA = [
    ["commutator", "--blaschke-f", "0.3+0.4i,-0.6", "--blaschke-g", "0.9i",
     "--kmax", "15", "--trunc", "96"],
    ["commutator", "--blaschke-f", "0.5,0.75i", "--blaschke-g", "same", "--kmax", "20"],
    ["commutator", "--f", "1,0:1;2,0:0.5", "--g", "3,0:1i", "--kmax", "20",
     "--trunc", "32", "--format", "csv"],
    ["berezin", "--symbol", "40,10:1;1,1:1", "--z", "0.9,0.95i", "--route", "series"],
    ["toeplitz", "--symbol", "1,1:1;2,0:0.5", "--quadrature", "--trunc", "16"],
]


def readme_commands(tree: str) -> list:
    """The ``berezinlab`` lines of README.md's sh blocks, continuations joined."""
    with open(os.path.join(tree, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("berezinlab "):
                commands.append(shlex.split(line)[1:])
    return commands


def command_list(tree: str) -> list:
    from workloads import CliSession

    argvs = readme_commands(tree)
    for seed in SEEDS:
        argvs += CliSession(seed).argvs
    argvs += [["decay", "--field", field, "--symbol", symbol, "--kmax", "39"]
              for field in DECAY_FIELDS for symbol in DECAY_SYMBOLS]
    return argvs + EXTRA


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="checkout of the repository to run")
    tree = os.path.abspath(parser.parse_args(argv).tree)
    # the tree's berezinlab and perfbench modules, ahead of any installed copy
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from workloads import run_cli

    for command in command_list(tree):
        run = run_cli(command)
        digest = hashlib.sha256(run.text.encode("utf-8")).hexdigest()
        print(digest, run.code, shlex.join(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
