"""FO model checking on geometric graph classes via bounded-width poset interpretations.

The package turns a geometric representation (intervals, circular arcs,
chords, permutation segments, boxes, unit disks, or a polygon) into a
labelled poset together with a pair of poset formulas (nu, psi) so that the
represented graph is exactly the graph interpreted in the poset.  A naive
exhaustive evaluator checks sentences on either side; the two verdicts must
agree on every instance.  The hardness-side constructions (consecutive
neighbourhood witnesses, label gadgets, clique-width families, terrain/fan
polygons) are provided as instance generators.
"""

__version__ = "0.1.0"


class GeomfoError(Exception):
    """Base of every error geomfo raises on bad input or an inconsistency."""
