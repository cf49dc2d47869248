"""Digest of the CLI's stdout and stderr on a fixed command list, for byte-identity checks.

    python3 tools/stdout_digest.py TREE > digests.txt

TREE is a checkout of this repository; its ``src/berezinlab`` runs, in
process through perfbench's ``run_cli``, each command of the list, and
the tool prints one line ``sha256 exit-code argv`` per command.  The
digest covers stdout and the stderr captured around the call, so two
trees whose lines agree printed the same bytes on both streams for
every command.  The list holds the README's ``berezinlab`` examples,
the commands of perfbench's cli-session for seeds 1-3, the three symbol
``decay`` fields at ``--kmax 39`` for three symbols, the invariant
Laplacian on a nontangential path to the rim, the factored Laplacian
and the commutator's derivative profile on the ray at angle 0.3 out to
``--kmax 39``, a few commands that reach the commutator defect, the series route (near the rim too) and
the quadrature Toeplitz builder with other inputs, one of them on a
grid of one full node slice and a ragged tail, a ``U_z`` dump near the
origin whose entries fall to about 1e-150, input errors of every
command, each of which writes one ``error:`` line and exits 2, a
quadrature transform near 1e307 from coefficients of 1e308, and two
finite symbols whose transforms overflow, which exit 5.
No command writes a path of TREE, but a numpy RuntimeWarning names its
source file and line, so stderr has TREE replaced by ``TREE`` and each
``.py:LINE:`` by ``.py:N:`` before hashing: digests compare across
checkouts, and across edits that only move the warning's line.
It reads ``perfbench/`` and writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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
    ["berezin", "--symbol", "3,1:1;0,2:0.5i", "--z", "0.999,0.9995i", "--route", "series"],
    ["decay", "--field", "invariant-laplacian", "--symbol", "1,1:1", "--aperture", "0.7",
     "--kmax", "39"],
    ["decay", "--field", "factored-laplacian", "--factor", "1,0:1", "--factor", "0,1:1",
     "--theta", "0.3", "--kmax", "39"],
    ["commutator", "--f", "1,0:1", "--g", "1,0:1", "--theta", "0.3", "--kmax", "39",
     "--trunc", "16"],
    ["toeplitz", "--symbol", "1,1:1;2,0:0.5", "--quadrature", "--trunc", "16"],
    ["toeplitz", "--symbol", "1,1:1;2,0:0.5", "--quadrature", "--trunc", "12",
     "--nr", "81", "--ntheta", "100"],
    ["uz", "--z", "0.004+0.001i", "--trunc", "64"],
    # input errors
    ["berezin", "--symbol", "1,1", "--z", "0"],
    ["toeplitz", "--symbol", "1,1:x", "--trunc", "8"],
    ["berezin", "--symbol", "1,1:1", "--z", "0.3+x"],
    ["uz", "--z", "abc", "--trunc", "4"],
    ["berezin", "--symbol", "1,1:1", "--z", ","],
    ["berezin", "--symbol", "1,1:1", "--z", "0.5,2.0"],
    ["uz", "--z", "1.0", "--trunc", "4"],
    ["commutator", "--blaschke-f", "0.5,x", "--g", "1,0:1"],
    ["commutator", "--blaschke-f", ",", "--g", "1,0:1"],
    ["commutator", "--blaschke-f", "1.5", "--g", "1,0:1"],
    ["commutator", "--f", "0,1:1", "--g", "1,0:1"],
    ["commutator", "--g", "1,0:1"],
    ["commutator", "--f", "1,0:1", "--blaschke-g", "same"],
    ["decay", "--field", "localization"],
    ["decay", "--field", "factored-laplacian"],
    ["decay", "--field", "factored-laplacian", "--factor", "1,1:1"],
    ["decay", "--field", "factored-laplacian", "--factor", "1,0"],
    ["berezin", "--symbol", "1,1:1", "--z", "0.5", "--out", "/dev/null/x.json"],
    ["berezin", "--symbol", "1,1:1e400", "--z", "0.3", "--route", "series"],
    ["decay", "--field", "berezin-minus-symbol", "--symbol", "1,1:1e400"],
    ["toeplitz", "--symbol", "1,1:1e400", "--trunc", "8"],
    # a finite transform near the top of the range
    ["berezin", "--symbol", "2,4:-1e308;1,5:3", "--z", "0.3+0.4i", "--route", "quadrature"],
    # finite symbols whose transforms overflow: exit 5, nothing on stdout
    ["berezin", "--symbol", "0,0:1.5e308;1,1:1.5e308", "--z", "0.5", "--route", "quadrature"],
    ["decay", "--field", "berezin-minus-symbol", "--symbol", "1,1:1e308;0,0:1e308",
     "--kmax", "3", "--format", "csv"],
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
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            run = run_cli(command)
        stderr = re.sub(r"\.py:\d+:", ".py:N:", err.getvalue().replace(tree, "TREE"))
        streams = run.text + "\0" + stderr
        digest = hashlib.sha256(streams.encode("utf-8")).hexdigest()
        print(digest, run.code, shlex.join(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
