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


def _opt_row(objective: SmoothObjective, t1: float, t5: float, t6: float,
             t7: float, t8: float, t9: float) -> OptParams:
    """A tuned nine-coefficient row: t2 = 1 - t1, t3 and t4 are fixed,
    c = mu / 2 and theta = 2 t9 c, which must not pass 1."""
    c = objective.mu / 2.0
    theta = 2.0 * t9 * c
    if theta > 1.0:
        raise ValueError(
            f"the {TABLE} preset of opt-extra-point on {objective.kind} "
            f"instances sets theta = {t9:g} mu, so it needs mu at most "
            f"1/{t9:g}; this instance has mu = {objective.mu!r}")
    return OptParams(t=(t1, 1.0 - t1, 0.9, 0.0277, t5, t6, t7, t8, t9),
                     theta=theta, c=c)


# Tuned rows per instance family (kind, constrained): linear-vi free and on
# the orthant, and the minimization kinds, whose operator methods run
# against the gradient operator.
TUNED = {
    ("linear-vi", False): {
        "vanilla": ViParams(alpha=0.0095),
        "heavy-ball": ViParams(alpha=0.0119, gamma=0.0365),
        "extra-gradient": ViParams(alpha=0.021, eta=0.021),
        "nesterov": ViParams(alpha=0.0084, beta=0.175),
        "ogda": ViParams(alpha=0.019, tau=0.0117),
        "extra-point": ViParams(alpha=0.021, beta=0.3276, gamma=0.3276,
                                eta=0.0202, tau=0.0021)},
    ("linear-vi", True): {
        "vanilla": ViParams(alpha=0.0235),
        "heavy-ball": ViParams(alpha=0.0188, gamma=0.0146),
        "extra-gradient": ViParams(alpha=0.034, eta=0.034),
        "nesterov": ViParams(alpha=0.0146, beta=0.175),
        "ogda": ViParams(alpha=0.024, tau=0.0234),
        "extra-point": ViParams(alpha=0.034, beta=0.34, gamma=0.34,
                                eta=0.0323, tau=0.0068)},
    ("quadratic", False): {
        "vanilla": ViParams(alpha=0.0407),
        "heavy-ball": ViParams(alpha=0.0717, gamma=0.8349),
        "extra-gradient": ViParams(alpha=0.021, eta=0.021),
        "nesterov": ViParams(alpha=0.0214, beta=0.9075),
        "ogda": ViParams(alpha=0.0387, tau=0.002),
        # t7/t8 track the instance's modulus ratio
        "opt-extra-point": lambda o: _opt_row(
            o, 0.9538, 6.3712, 6.9252, 1.0 - math.sqrt(o.sigma),
            math.sqrt(o.sigma), 0.0485)},
    ("logistic", False): {
        "vanilla": ViParams(alpha=38.4615),
        "heavy-ball": ViParams(alpha=9.8765, gamma=0.7778),
        "extra-gradient": ViParams(alpha=19.7, eta=19.7),
        "nesterov": ViParams(alpha=28.5714, beta=0.455),
        "ogda": ViParams(alpha=39.2, tau=0.2),
        "opt-extra-point": lambda o: _opt_row(
            o, 0.7363, 5.5402, 6.6482, 0.6419, 1.0 - 0.6419, 71.6115)},
}


def table_preset(method: str,
                 target: Union[MonotoneProblem, SmoothObjective]):
    """Tuned parameters for one method on a matching benchmark instance.

    Raises ValueError when the target kind has no tuned row for the method.
    """
    rows = TUNED.get((target.kind, isinstance(target, MonotoneProblem) and
                      not target.feasible_set.unbounded_whole_space), {})
    if not rows:
        raise ValueError(f"no tuned presets for problem kind {target.kind!r}")
    if method not in rows:
        raise ValueError(f"no tuned preset for method {method!r} on "
                         f"{target.kind}")
    row = rows[method]
    return row(target) if callable(row) else row
