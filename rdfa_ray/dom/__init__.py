"""DOM layer: one lightweight Element tree for both HTML and XML paths.

The reference parses HTML5 with html5lib and XML/XHTML/SVG with
``xml.dom.minidom`` (``/root/reference/pyRdfa/__init__.py:619-660``).
Neither html5lib nor lxml is available, so both paths build the same
``Element`` class from pyexpat handlers: the XML path builds the tree
minidom would hold, and the HTML path uses expat for fragments whose
``html.parser`` tree it reproduces exactly, with a lenient stdlib
``html.parser`` tree builder for everything else.
"""

from .node import Element, Document  # noqa: F401
from .html_builder import parse_html  # noqa: F401
from .xml_builder import parse_xml  # noqa: F401
from .sniff import sniff_profile, parse_document  # noqa: F401
