"""Minimal DOM node model shared by the HTML and XML parse paths.

The kernel reads and edits ``attrs`` (a dict) directly.  The
``xml.dom.minidom``-style methods (hasAttribute/getAttribute/...,
``getElementsByTagName`` for <base> discovery at
``/root/reference/pyRdfa/state.py:186-190``, and ``toxml()`` for XML
literal generation, ``/root/reference/pyRdfa/utils.py:211-239``) remain
for custom transformers written against the reference's DOM.
Text children are plain ``str`` objects; comments/PIs are dropped at
parse time (they are invisible to RDFa processing).
"""

from __future__ import annotations


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


class Element:
    __slots__ = ("tag", "local", "ns_uri", "ns_scope", "attrs", "children")

    def __init__(self, tag: str, attrs=None, ns_uri: str | None = None, local: str | None = None):
        self.tag = tag              # qualified name as written (lowercased in HTML)
        if local is None:
            local = tag if ":" not in tag else tag.split(":", 1)[1]
        self.local = local
        self.ns_uri = ns_uri        # resolved namespace URI (XML path only)
        self.ns_scope = None        # in-scope prefix->uri map (XML path only)
        self.attrs: dict[str, str] = dict(attrs) if attrs else {}
        self.children: list = []    # Element | str

    # -- attribute API (minidom-compatible names) ------------------------
    def hasAttribute(self, name: str) -> bool:
        return name in self.attrs

    def getAttribute(self, name: str) -> str:
        return self.attrs.get(name, "")

    def setAttribute(self, name: str, value: str) -> None:
        self.attrs[name] = value

    def removeAttribute(self, name: str) -> None:
        self.attrs.pop(name, None)

    # -- tree API --------------------------------------------------------
    def append(self, child) -> None:
        self.children.append(child)

    def element_children(self):
        return [c for c in self.children if isinstance(c, Element)]

    def iter_elements(self):
        """Pre-order iteration over this element and all descendants."""
        stack = [self]
        while stack:
            el = stack.pop()
            yield el
            stack.extend(reversed(el.element_children()))

    def getElementsByTagName(self, tag: str):
        # Descendants only, document order (minidom semantics).
        found = []
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                if node.tag == tag:
                    found.append(node)
                if node.children:
                    stack.extend(node.children[::-1])
        return found

    def text_content(self) -> str:
        """Recursive text (reference ``_get_literal``, property.py:231-251)."""
        children = self.children
        if len(children) == 1 and type(children[0]) is str:
            return children[0]
        out = []
        stack = [iter(self.children)]
        while stack:
            try:
                c = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if isinstance(c, Element):
                stack.append(iter(c.children))
            else:
                out.append(c)
        return "".join(out)

    def clone(self) -> "Element":
        el = Element(self.tag, self.attrs, self.ns_uri, self.local)
        el.ns_scope = self.ns_scope
        el.children = [c.clone() if isinstance(c, Element) else c for c in self.children]
        return el

    # -- serialization (minidom ``toxml`` parity for XML literals) -------
    def toxml(self) -> str:
        out = []
        self._write(out)
        return "".join(out)

    def _write(self, out: list) -> None:
        out.append("<")
        out.append(self.tag)
        for name, value in self.attrs.items():
            out.append(' %s="%s"' % (name, _escape_attr(value)))
        if not self.children:
            out.append("/>")
            return
        out.append(">")
        for c in self.children:
            if isinstance(c, Element):
                c._write(out)
            else:
                out.append(_escape_text(c))
        out.append("</%s>" % self.tag)

    def __repr__(self):  # pragma: no cover - debug aid
        return "<Element %s %r (%d children)>" % (self.tag, self.attrs, len(self.children))


class Document:
    """Wrapper carrying the root element plus doctype info (DTD-based host
    language / RDFa version adjustment, reference host/__init__.py:144-203)."""

    __slots__ = ("root", "public_id", "system_id")

    def __init__(self, root: Element, public_id: str | None = None, system_id: str | None = None):
        self.root = root
        self.public_id = public_id
        self.system_id = system_id
