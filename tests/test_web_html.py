"""Tests for the HTML parser and DOM."""

import pytest
from hypothesis import given, strategies as st

from repro.web.dom import CommentNode, Element, TextNode
from repro.web.html import parse_fragment, parse_html


class TestBasicParsing:
    def test_simple_document(self):
        doc = parse_html("<html><head></head><body><p>hi</p></body></html>")
        assert doc.root is not None
        assert doc.body is not None
        assert doc.body.text_content() == "hi"

    def test_attributes(self):
        doc = parse_html('<div id="main" class="box wide">x</div>')
        div = doc.find("div")
        assert div.get("id") == "main"
        assert div.get("class") == "box wide"

    def test_single_quoted_attribute(self):
        doc = parse_html("<a href='http://x.com/'>x</a>")
        assert doc.find("a").get("href") == "http://x.com/"

    def test_unquoted_attribute(self):
        doc = parse_html("<img src=pic.png width=10>")
        img = doc.find("img")
        assert img.get("src") == "pic.png"
        assert img.get("width") == "10"

    def test_boolean_attribute(self):
        doc = parse_html("<iframe sandbox src='/x'></iframe>")
        iframe = doc.find("iframe")
        assert iframe.has_attribute("sandbox")
        assert iframe.get("sandbox") == ""

    def test_void_element_does_not_nest(self):
        doc = parse_html("<p><br>after</p>")
        p = doc.find("p")
        assert p.text_content() == "after"
        assert p.find("br") is not None

    def test_self_closing(self):
        doc = parse_html("<div><span/>tail</div>")
        assert doc.find("div").text_content() == "tail"

    def test_comment(self):
        doc = parse_html("<div><!-- note --></div>")
        div = doc.find("div")
        assert any(isinstance(c, CommentNode) for c in div.children)

    def test_doctype_skipped(self):
        doc = parse_html("<!DOCTYPE html><html><body>x</body></html>")
        assert doc.root is not None

    def test_entities_unescaped(self):
        doc = parse_html("<p>a &amp; b &lt;c&gt;</p>")
        assert doc.find("p").text_content() == "a & b <c>"

    def test_stray_lt_is_text(self):
        doc = parse_html("<p>1 < 2</p>")
        assert "<" in doc.find("p").text_content()


class TestScriptHandling:
    def test_script_body_is_raw_text(self):
        doc = parse_html('<script>if (a < b) { x("<div>"); }</script>')
        script = doc.find("script")
        assert 'if (a < b) { x("<div>"); }' == script.text_content()

    def test_script_with_src(self):
        doc = parse_html('<script src="http://cdn.ads.com/a.js"></script>')
        assert doc.find("script").get("src") == "http://cdn.ads.com/a.js"

    def test_multiple_scripts_in_order(self):
        doc = parse_html("<script>one</script><p></p><script>two</script>")
        assert [s.text_content() for s in doc.scripts()] == ["one", "two"]

    def test_mixed_case_raw_text_closers(self):
        doc = parse_html("<SCRIPT>One</Script><p>Mid</p><style>B{}</STYLE>"
                         "<script>Two</sCrIpT>tail")
        assert [s.text_content() for s in doc.scripts()] == ["One", "Two"]
        assert doc.find("style").text_content() == "B{}"
        assert doc.to_html().endswith("tail")

    def test_raw_text_after_text_that_lowercases_longer(self):
        # "İ".lower() is two code points; the close tag must still be
        # found at an index valid in the original markup.
        doc = parse_html("<p>İİİİ</p><script>var a=1;</script>"
                         "<STYLE>B{}</Style>after")
        assert doc.find("script").text_content() == "var a=1;"
        assert doc.find("style").text_content() == "B{}"
        assert doc.to_html().endswith("after")

    def test_unterminated_script(self):
        doc = parse_html("<script>var x = 1;")
        assert doc.find("script").text_content() == "var x = 1;"


class TestMalformedMarkup:
    def test_unclosed_tags(self):
        doc = parse_html("<div><p>one<p>two</div>")
        div = doc.find("div")
        assert len(div.find_all("p")) == 2

    def test_unmatched_close_ignored(self):
        doc = parse_html("<div>x</span></div>")
        assert doc.find("div").text_content() == "x"

    def test_implicit_li_close(self):
        doc = parse_html("<ul><li>a<li>b</ul>")
        lis = doc.find("ul").find_all("li")
        assert [li.text_content() for li in lis] == ["a", "b"]

    def test_empty_input(self):
        doc = parse_html("")
        assert doc.children == []


class TestDomApi:
    def test_iframes_helper(self):
        doc = parse_html('<body><iframe src="/a"></iframe><iframe src="/b"></iframe></body>')
        assert [f.get("src") for f in doc.iframes()] == ["/a", "/b"]

    def test_get_element_by_id(self):
        doc = parse_html('<div><span id="target">x</span></div>')
        assert doc.get_element_by_id("target").tag == "span"
        assert doc.get_element_by_id("nope") is None

    def test_append_moves_node(self):
        a = Element("div")
        b = Element("div")
        child = Element("span")
        a.append(child)
        b.append(child)
        assert child.parent is b
        assert child not in a.children

    def test_detach(self):
        parent = Element("div")
        child = parent.append(Element("span"))
        child.detach()
        assert parent.children == []
        assert child.parent is None

    def test_iter_preorder(self):
        doc = parse_html("<a><b></b><c><d></d></c></a>")
        tags = [el.tag for el in doc.find("a").iter()]
        assert tags == ["a", "b", "c", "d"]

    def test_parse_fragment(self):
        elements = parse_fragment("<p>a</p><p>b</p>")
        assert [e.tag for e in elements] == ["p", "p"]


class TestSerialization:
    def test_round_trip_simple(self):
        markup = '<div id="x"><p>hello</p></div>'
        assert parse_html(markup).to_html() == markup

    def test_void_element_serialization(self):
        markup = '<img src="a.png">'
        assert parse_html(markup).to_html() == markup

    def test_script_raw_round_trip(self):
        markup = "<script>a < b && c > d</script>"
        assert parse_html(markup).to_html() == markup

    def test_attr_escaping(self):
        el = Element("div", {"title": 'say "hi"'})
        assert el.to_html() == '<div title="say &quot;hi&quot;"></div>'

    def test_text_escaping(self):
        el = Element("p")
        el.append_text("a < b & c")
        assert el.to_html() == "<p>a &lt; b &amp; c</p>"

    @given(st.text(alphabet="abc<>&\"' d", max_size=40))
    def test_reparse_of_serialized_text_is_stable(self, text):
        el = Element("p")
        el.append_text(text)
        once = el.to_html()
        reparsed = parse_html(once)
        assert reparsed.to_html() == once
