"""XML data model: nodes, parsing, serialization.

This subpackage is the base substrate for everything else.  It provides a
small, self-contained XML tree model with the *region encoding*
``(start, end, level)`` used by native XML databases (TIMBER-style) to
support structural joins, plus a hand-written parser for the XML subset we
need and a serializer that round-trips with it.

The public surface:

- :class:`~repro.xmlmodel.nodes.Element`, :class:`~repro.xmlmodel.nodes.Document`
- :func:`~repro.xmlmodel.parser.parse` / :func:`~repro.xmlmodel.parser.parse_file`
- :func:`~repro.xmlmodel.serializer.serialize`
"""

from repro.xmlmodel.nodes import Document, Element
from repro.xmlmodel.parser import parse, parse_file
from repro.xmlmodel.serializer import serialize

__all__ = ["Document", "Element", "parse", "parse_file", "serialize"]
