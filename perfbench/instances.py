"""Raw presentations of the benchmark instances, built in code.

Each workload's instance is a raw presentation made seeded-generic by the
real CLI: ``tropcm generic RAW --seed S --bound 100 -o INSTANCE``.  The
program only ever sees the generated ``.ideal`` files.
"""

import json
from itertools import combinations

BOUND = 100


def pluecker_g24():
    """The Pluecker quadric of G(2,4): 6 variables, Krull dimension 5."""
    return "x1 x2 x3 x4 x5 x6", ["x1*x6 - x2*x5 + x3*x4"]


def rational_normal_quartic():
    """2x2 minors of [[x1,x2,x3,x4],[x2,x3,x4,x5]]: 5 variables, dimension 2."""
    top, bottom = ["x1", "x2", "x3", "x4"], ["x2", "x3", "x4", "x5"]
    gens = [f"{top[a]}*{bottom[b]} - {top[b]}*{bottom[a]}"
            for a, b in combinations(range(4), 2)]
    return "x1 x2 x3 x4 x5", gens


def raw_text(presentation):
    names, gens = presentation()
    return "vars: " + names + "\nfield: Q\n" + "\n".join(gens) + "\n"


def generic_args(raw_path, out_path, seed):
    """CLI arguments that write the seeded-generic form of RAW to OUT."""
    return ["generic", raw_path, "--seed", str(seed), "--bound", str(BOUND),
            "-o", out_path]


def check_generic_summary(stdout, seed):
    """Raise unless ``tropcm generic`` passed its audit without reseeding."""
    summary = json.loads(stdout)
    if not summary["pass"]:
        raise RuntimeError(f"genericity audit failed for seed {seed}")
    if summary["reseeds"] != 0 or summary["seed"] != seed:
        raise RuntimeError(f"seed {seed} was reseeded to {summary['seed']}")
