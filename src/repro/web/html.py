"""HTML tokenizer and tree builder.

A pragmatic from-scratch parser covering the HTML the simulated ad
ecosystem emits (and realistic sloppiness: unquoted attributes, unclosed
tags, raw-text script bodies, comments, doctype).  It deliberately does not
attempt the full HTML5 tree-construction algorithm; the subset here is the
one the crawler, the honeyclient and the tests exercise.

Parsing runs in two stages: tokenization produces a stream of immutable
token tuples, and tree building turns that stream into a **fresh mutable**
:class:`~repro.web.dom.Document` on every call, because pages mutate their
DOM (``document.write``, attribute writes).  Nothing is cached: a study
sees more distinct documents than any bounded token cache can hold, so
such a cache missed on every re-render (DESIGN §11).
"""

from __future__ import annotations

import string
from typing import Iterator, Optional

from repro.web.dom import (
    CommentNode,
    Document,
    Element,
    RAW_TEXT_ELEMENTS,
    TextNode,
    VOID_ELEMENTS,
)

# Elements whose open tag implicitly closes a previous sibling of the same tag.
IMPLICIT_CLOSERS = frozenset({"li", "p", "td", "tr", "option"})

# Immutable token forms (the tokenizer output):
#   (_TEXT, text)
#   (_COMMENT, text)
#   (_TAG, name, ((attr, value), ...), closing, self_closing)
_TEXT = "text"
_COMMENT = "comment"
_TAG = "tag"

Token = tuple

# Lowers ASCII letters only, so every index stays valid in the original
# markup (``str.lower`` can lengthen a string: "İ" lowers to two code
# points), and close tags match ASCII-case-insensitively, as in HTML.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _unescape(text: str) -> str:
    return (
        text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&#39;", "'")
        .replace("&amp;", "&")
    )


class _Tokenizer:
    """Streaming tokenizer over the markup string."""

    def __init__(self, markup: str) -> None:
        self.markup = markup
        self.pos = 0
        self._lower: Optional[str] = None  # ASCII-lowered markup, made on first raw-text tag

    def tokens(self) -> Iterator[Token]:
        """Yield immutable token tuples (see module constants)."""
        while self.pos < len(self.markup):
            lt = self.markup.find("<", self.pos)
            if lt == -1:
                yield (_TEXT, _unescape(self.markup[self.pos:]))
                return
            if lt > self.pos:
                yield (_TEXT, _unescape(self.markup[self.pos:lt]))
            if self.markup.startswith("<!--", lt):
                end = self.markup.find("-->", lt + 4)
                if end == -1:
                    yield (_COMMENT, self.markup[lt + 4:])
                    return
                yield (_COMMENT, self.markup[lt + 4:end])
                self.pos = end + 3
                continue
            if self.markup.startswith("<!", lt):  # doctype etc.
                end = self.markup.find(">", lt)
                self.pos = len(self.markup) if end == -1 else end + 1
                continue
            tag = self._read_tag(lt)
            if tag is None:
                # A stray '<' that does not start a tag: emit as text.
                yield (_TEXT, "<")
                self.pos = lt + 1
                continue
            yield tag
            _, name, _, closing, self_closing = tag
            if not closing and name in RAW_TEXT_ELEMENTS and not self_closing:
                raw = self._read_raw_text(name)
                if raw:
                    yield (_TEXT, raw)
                yield (_TAG, name, (), True, False)

    def _read_tag(self, lt: int) -> Optional[Token]:
        pos = lt + 1
        closing = False
        if pos < len(self.markup) and self.markup[pos] == "/":
            closing = True
            pos += 1
        name_start = pos
        while pos < len(self.markup) and (self.markup[pos].isalnum() or self.markup[pos] in "-_"):
            pos += 1
        name = self.markup[name_start:pos].lower()
        if not name:
            return None
        attributes: dict[str, str] = {}
        self_closing = False
        while pos < len(self.markup):
            while pos < len(self.markup) and self.markup[pos].isspace():
                pos += 1
            if pos >= len(self.markup):
                break
            ch = self.markup[pos]
            if ch == ">":
                pos += 1
                break
            if ch == "/":
                self_closing = True
                pos += 1
                continue
            attr_start = pos
            while pos < len(self.markup) and self.markup[pos] not in "=/> \t\n\r":
                pos += 1
            attr_name = self.markup[attr_start:pos].lower()
            value = ""
            while pos < len(self.markup) and self.markup[pos].isspace():
                pos += 1
            if pos < len(self.markup) and self.markup[pos] == "=":
                pos += 1
                while pos < len(self.markup) and self.markup[pos].isspace():
                    pos += 1
                if pos < len(self.markup) and self.markup[pos] in "\"'":
                    quote = self.markup[pos]
                    end = self.markup.find(quote, pos + 1)
                    if end == -1:
                        end = len(self.markup)
                    value = self.markup[pos + 1:end]
                    pos = min(end + 1, len(self.markup))
                else:
                    val_start = pos
                    while pos < len(self.markup) and self.markup[pos] not in "/> \t\n\r":
                        pos += 1
                    value = self.markup[val_start:pos]
            if attr_name:
                attributes[attr_name] = _unescape(value)
        self.pos = pos
        return (_TAG, name, tuple(attributes.items()), closing, self_closing)

    def _read_raw_text(self, tag_name: str) -> str:
        """Consume raw text until the matching close tag (e.g. </script>)."""
        close = f"</{tag_name}"
        if self._lower is None:
            markup = self.markup
            self._lower = (markup.lower() if markup.isascii()
                           else markup.translate(_ASCII_LOWER))
        idx = self._lower.find(close, self.pos)
        if idx == -1:
            raw = self.markup[self.pos:]
            self.pos = len(self.markup)
            return raw
        raw = self.markup[self.pos:idx]
        end = self.markup.find(">", idx)
        self.pos = len(self.markup) if end == -1 else end + 1
        return raw


def parse_html(markup: str) -> Document:
    """Parse ``markup`` into a fresh, mutable :class:`Document`."""
    document = Document()
    stack: list[Element] = [document]
    for token in _Tokenizer(markup).tokens():
        kind = token[0]
        if kind == _TEXT:
            stack[-1].append(TextNode(token[1]))
            continue
        if kind == _COMMENT:
            stack[-1].append(CommentNode(token[1]))
            continue
        _, name, attrs, closing, self_closing = token
        if closing:
            _close(stack, name)
            continue
        if name in IMPLICIT_CLOSERS and stack[-1].tag == name:
            stack.pop()
        element = Element(name, dict(attrs))
        stack[-1].append(element)
        if self_closing or name in VOID_ELEMENTS:
            continue
        stack.append(element)
    return document


def _close(stack: list[Element], name: str) -> None:
    """Pop the stack down to (and including) the innermost open ``name``."""
    for depth in range(len(stack) - 1, 0, -1):
        if stack[depth].tag == name:
            del stack[depth:]
            return
    # Unmatched close tag: ignore, like browsers do.


def parse_fragment(markup: str) -> list[Element]:
    """Parse a fragment and return its top-level elements."""
    document = parse_html(markup)
    return [child for child in document.children if isinstance(child, Element)]
