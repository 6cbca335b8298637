"""Benchmark workloads: the jobs each one runs, as covsig command lines.

Every job is an L(V, m) covering-link computation driven through
covsig.cli.run_command, so its inputs are exactly what a command-line user
would type.  The two ladders are fixed; batch-cli has a fixed mix whose
order, commands and output formats are drawn from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# knot name -> (--V argument, Seifert matrix size)
KNOTS = {
    "trefoil": ("trefoil", 2),
    "mirror": ("[[1,0],[-1,1]]", 2),
    "t25": ("[[-1,1,0,0],[0,-1,1,0],[0,0,-1,1],[0,0,0,-1]]", 4),
    "alg": ("[[1,1],[0,2]]", 2),
}
CONTROL_COEFFS = '{"0": 1}'


@dataclass(frozen=True)
class Job:
    knot: str
    m: int
    p: int
    a: int = 1
    control: bool = False  # trivial pattern {"0": 1} in place of the L(V, m) one
    command: str = "obstruct"
    fmt: str = "json"

    @property
    def d(self) -> int:
        return self.p ** self.a

    def argv(self):
        argv = [self.command, "--family", "ltm", "--V", KNOTS[self.knot][0],
                "--m", str(self.m), "--p", str(self.p), "--format", self.fmt]
        if self.a != 1:
            argv += ["--a", str(self.a)]
        if self.control:
            argv += ["--coeffs", CONTROL_COEFFS]
        return argv

    def matrix_size(self, multiplicities) -> int:
        # each strand of L(V, m)'s cover carries a block of size 2 * size(V)
        return sum(abs(k) for k in multiplicities) * 2 * KNOTS[self.knot][1]

    def label(self) -> str:
        pattern = "trivial" if self.control else f"m={self.m}"
        return f"{self.command}/{self.fmt} {self.knot} {pattern} d={self.p}^{self.a}"


# Every candidate jump is a root of unity: the dense kernels do the work.
LADDER_CYCLOTOMIC = (
    Job("trefoil", 2, 3),
    Job("trefoil", 3, 3),
    Job("trefoil", 2, 5),
    Job("t25", 2, 3),
    Job("trefoil", 2, 2, a=2),
)
# Every jump is algebraic: candidate separation does most of the work.
LADDER_ALGEBRAIC = (
    Job("alg", 2, 3),
    Job("alg", 3, 3),
    Job("alg", 2, 2, a=2),
)

# p -> knot -> m: every covering matrix has n <= 28, the smallest ladder size.
# T25 at p = 3 has n = 56.  ALG at p = 3 is left to the algebraic ladder: in
# human format its display alone takes about 2 s a job.
BATCH_POOL = {
    2: {"trefoil": (-2, -1, 2, 3), "mirror": (-2, -1, 2, 3), "alg": (-2, -1, 2, 3), "t25": (-1, 2)},
    3: {"trefoil": (-1, 2), "mirror": (-1, 2)},
}
BATCH_REPEATS = 5  # jobs per (knot, p, m) of the pool
BATCH_CONTROLS = 2  # trivial-pattern jobs per (knot, p)


def batch_cli(seed: int):
    """106 small obstruct/cover jobs: 90 L(V, m) and 16 trivial-pattern controls.

    The mix of knots, p and m is the same for every seed, so that the seed
    does not change how much work a pass holds; the seed draws each job's
    command and output format and the order of the jobs.
    """
    rng = random.Random(seed)
    specs = [(knot, m, p, False)
             for p, knots in BATCH_POOL.items()
             for knot, ms in knots.items()
             for m in ms] * BATCH_REPEATS
    specs += [(knot, 2, p, True) for knot in KNOTS for p in BATCH_POOL] * BATCH_CONTROLS
    rng.shuffle(specs)
    return [Job(knot, m, p, control=control,
                command=rng.choice(("obstruct", "cover")),
                fmt=rng.choice(("human", "json")))
            for knot, m, p, control in specs]


# workload -> (jobs for a seed, per-job time limit in seconds)
WORKLOADS = {
    "ladder-cyclotomic": (lambda seed: list(LADDER_CYCLOTOMIC), 60.0),
    "ladder-algebraic": (lambda seed: list(LADDER_ALGEBRAIC), 60.0),
    "batch-cli": (batch_cli, 10.0),
}
