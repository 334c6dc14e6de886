"""Named parameter presets for the bundled benchmark families.

Two preset tokens are exposed through the CLI:

* "paper-default": the certified default parameter families built from
  (mu, lip) by certify.default_params; feasibility is provable and the
  runs carry rate certificates.
* "table": hand-tuned constants for the benchmark problem kinds
  (linear-vi unconstrained/constrained, quadratic, logistic), stored
  exactly as tuned. These are opaque performance presets: they are not
  certified and are only legal on their matching problem kinds.
"""

from __future__ import annotations

import math
from typing import Union

from .core import MonotoneProblem, SmoothObjective
from .solvers import OptParams, ViParams

PAPER_DEFAULT = "paper-default"
TABLE = "table"
PRESETS = (PAPER_DEFAULT, TABLE)

# linear-vi benchmark rows: (unconstrained, constrained)
VI_TUNED = {
    "vanilla": (ViParams(alpha=0.0095),
                ViParams(alpha=0.0235)),
    "heavy-ball": (ViParams(alpha=0.0119, gamma=0.0365),
                   ViParams(alpha=0.0188, gamma=0.0146)),
    "extra-gradient": (ViParams(alpha=0.021, eta=0.021),
                       ViParams(alpha=0.034, eta=0.034)),
    "nesterov": (ViParams(alpha=0.0084, beta=0.175, gamma=0.175),
                 ViParams(alpha=0.0146, beta=0.175, gamma=0.175)),
    "ogda": (ViParams(alpha=0.019, tau=0.0117),
             ViParams(alpha=0.024, tau=0.0234)),
    "extra-point": (ViParams(alpha=0.021, beta=0.3276, gamma=0.3276,
                             eta=0.0202, tau=0.0021),
                    ViParams(alpha=0.034, beta=0.34, gamma=0.34,
                             eta=0.0323, tau=0.0068)),
}

# minimization benchmark rows for the operator methods, run against the
# gradient operator: (quadratic, logistic)
OPT_TUNED_FIRST_ORDER = {
    "vanilla": (ViParams(alpha=0.0407),
                ViParams(alpha=38.4615)),
    "heavy-ball": (ViParams(alpha=0.0717, gamma=0.8349),
                   ViParams(alpha=9.8765, gamma=0.7778)),
    "extra-gradient": (ViParams(alpha=0.021, eta=0.021),
                       ViParams(alpha=19.7, eta=19.7)),
    "nesterov": (ViParams(alpha=0.0214, beta=0.9075, gamma=0.9075),
                 ViParams(alpha=28.5714, beta=0.455, gamma=0.455)),
    "ogda": (ViParams(alpha=0.0387, tau=0.002),
             ViParams(alpha=39.2, tau=0.2)),
}


def _opt_tuned_extra_point(objective: SmoothObjective) -> OptParams:
    """Tuned nine-coefficient rows; t7/t8 of the quadratic row track the
    instance's modulus ratio, everything else is a fixed constant."""
    if objective.kind == "quadratic":
        root = math.sqrt(objective.sigma)
        t = (0.9538, 1.0 - 0.9538, 0.9, 0.0277, 6.3712, 6.9252,
             1.0 - root, root, 0.0485)
    elif objective.kind == "logistic":
        t = (0.7363, 1.0 - 0.7363, 0.9, 0.0277, 5.5402, 6.6482,
             0.6419, 1.0 - 0.6419, 71.6115)
    else:
        raise ValueError(f"no tuned preset for objective kind {objective.kind!r}")
    c = objective.mu / 2.0
    return OptParams(t=t, theta=2.0 * t[8] * c, c=c)


def table_preset(method: str,
                 target: Union[MonotoneProblem, SmoothObjective]):
    """Tuned parameters for one method on a matching benchmark instance.

    Raises ValueError when the target kind has no tuned row for the method.
    """
    if isinstance(target, MonotoneProblem):
        if target.kind != "linear-vi":
            raise ValueError(f"no tuned presets for problem kind {target.kind!r}")
        constrained = not target.feasible_set.unbounded_whole_space
        try:
            pair = VI_TUNED[method]
        except KeyError:
            raise ValueError(f"no tuned preset for method {method!r} on "
                             "linear-vi") from None
        return pair[1] if constrained else pair[0]
    if method == "opt-extra-point":
        return _opt_tuned_extra_point(target)
    col = {"quadratic": 0, "logistic": 1}.get(target.kind)
    if col is None:
        raise ValueError(f"no tuned presets for objective kind {target.kind!r}")
    try:
        return OPT_TUNED_FIRST_ORDER[method][col]
    except KeyError:
        raise ValueError(f"no tuned preset for method {method!r} on "
                         f"{target.kind}") from None
