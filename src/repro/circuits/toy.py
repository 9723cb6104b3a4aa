"""The explicit state graphs of the paper's Figures 1-3.

Each function returns an :class:`~repro.fsm.explicit.ExplicitGraph` drawn
exactly as in the paper, for use by the figure benchmarks and tests:

* Figure 1 — covered state for ``AG (p1 -> AX AX q)``;
* Figure 2 — the ``A[p1 U q]`` chain where raw Definition 3 covers nothing;
* Figure 3 — the ``traverse``/``firstreached`` sets of ``A[f1 U f2]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..fsm.explicit import ExplicitGraph

__all__ = [
    "figure1_graph",
    "figure2_graph",
    "figure3_graph",
    "FIGURE1_FORMULA",
    "FIGURE2_FORMULA",
    "FIGURE3_FORMULA",
]

FIGURE1_FORMULA = "AG (p1 -> AX AX q)"
FIGURE2_FORMULA = "A [p1 U q]"
FIGURE3_FORMULA = "A [f1 U f2]"


def figure1_graph() -> ExplicitGraph:
    """Figure 1: only the state two steps after the ``p1`` state is covered.

    The ``other_q`` state also satisfies ``q`` but is "not critical to the
    validity of the given formula" (paper), hence uncovered.
    """
    from ..fsm.explicit import ExplicitGraph

    g = ExplicitGraph("figure1", signals=["p1", "q"])
    g.state("init", labels={"p1"}, initial=True)
    g.state("mid", labels=set())
    g.state("marked", labels={"q"})
    g.state("other_q", labels={"q"})
    g.edge("init", "mid")
    g.edge("mid", "marked")
    g.edge("marked", "other_q")
    g.edge("other_q", "other_q")
    return g


def figure2_graph() -> ExplicitGraph:
    """Figure 2: the first ``q`` state also satisfies ``p1`` and a later
    state carries ``q`` again, so flipping ``q`` anywhere on the path never
    falsifies the raw ``A[p1 U q]`` — the transformation is required for
    intuitive coverage."""
    from ..fsm.explicit import ExplicitGraph

    g = ExplicitGraph("figure2", signals=["p1", "q"])
    g.state("s0", labels={"p1"}, initial=True)
    g.state("s1", labels={"p1"})
    g.state("s2", labels={"p1", "q"})
    g.state("s3", labels={"q"})
    g.edge("s0", "s1")
    g.edge("s1", "s2")
    g.edge("s2", "s3")
    g.edge("s3", "s3")
    return g


def figure3_graph() -> ExplicitGraph:
    """Figure 3: two ``f1`` branches feeding ``f2`` states, then a sink.

    ``traverse`` = {a, b, c}; ``firstreached`` = {d, e}.
    """
    from ..fsm.explicit import ExplicitGraph

    g = ExplicitGraph("figure3", signals=["f1", "f2"])
    g.state("a", labels={"f1"}, initial=True)
    g.state("b", labels={"f1"})
    g.state("c", labels={"f1"})
    g.state("d", labels={"f2"})
    g.state("e", labels={"f2"})
    g.state("sink", labels=set())
    g.edge("a", "b")
    g.edge("a", "c")
    g.edge("b", "d")
    g.edge("c", "e")
    g.edge("d", "sink")
    g.edge("e", "sink")
    g.edge("sink", "sink")
    return g
