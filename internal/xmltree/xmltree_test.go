package xmltree

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	e, err := ParseString(`<order id="42"><item qty="2">widget</item></order>`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name.Local != "order" {
		t.Fatalf("root = %s, want order", e.Name.Local)
	}
	if v := e.AttrValue("", "id"); v != "42" {
		t.Fatalf("id = %q, want 42", v)
	}
	item := e.Child("", "item")
	if item == nil {
		t.Fatal("missing item child")
	}
	if item.Text != "widget" {
		t.Fatalf("item text = %q, want widget", item.Text)
	}
	if item.Parent() != e {
		t.Fatal("parent link not set")
	}
}

func TestParseNamespaces(t *testing.T) {
	doc := `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">
		<s:Body><m:getCatalog xmlns:m="urn:scm"/></s:Body></s:Envelope>`
	e, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name.Space != "http://schemas.xmlsoap.org/soap/envelope/" {
		t.Fatalf("root space = %q", e.Name.Space)
	}
	body := e.Child("http://schemas.xmlsoap.org/soap/envelope/", "Body")
	if body == nil {
		t.Fatal("missing Body")
	}
	op := body.Child("urn:scm", "getCatalog")
	if op == nil {
		t.Fatal("missing namespaced operation element")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"unbalanced", "<a><b></a>"},
		{"truncated", "<a><b>"},
		{"garbage", "not xml at all <"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.doc); err == nil {
				t.Fatalf("ParseString(%q) succeeded, want error", tt.doc)
			}
		})
	}
}

func TestParseStripsIndentation(t *testing.T) {
	e, err := ParseString("<a>\n  <b>x</b>\n  <c> y </c>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if e.Text != "" {
		t.Fatalf("container text = %q, want empty", e.Text)
	}
	if got := e.ChildText("", "c"); got != "y" {
		t.Fatalf("c text = %q, want trimmed %q", got, "y")
	}
}

func TestRoundTrip(t *testing.T) {
	docs := []string{
		`<order id="42"><item qty="2">widget</item><note/></order>`,
		`<s:Envelope xmlns:s="urn:env"><s:Body><op xmlns="urn:app"><x>1</x></op></s:Body></s:Envelope>`,
		`<p:policy xmlns:p="urn:p" p:name="retry&amp;go"><when event="&lt;fault&gt;"/></p:policy>`,
	}
	for _, doc := range docs {
		orig, err := ParseString(doc)
		if err != nil {
			t.Fatalf("parse %q: %v", doc, err)
		}
		out, err := MarshalString(orig)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("re-parse %q: %v", out, err)
		}
		if !Equal(orig, back) {
			t.Fatalf("round trip changed tree:\norig: %s\nout:  %s", doc, out)
		}
	}
}

func TestCopyIsDeepAndDetached(t *testing.T) {
	orig := MustParseString(`<a x="1"><b><c>t</c></b></a>`)
	cp := orig.Copy()
	if !Equal(orig, cp) {
		t.Fatal("copy not equal to original")
	}
	if cp.Parent() != nil {
		t.Fatal("copy parent should be nil")
	}
	cp.Child("", "b").Child("", "c").Text = "changed"
	if orig.Child("", "b").Child("", "c").Text != "t" {
		t.Fatal("mutation of copy leaked into original")
	}
}

func TestInsertRemoveReplace(t *testing.T) {
	root := New("", "root")
	a, b, c := New("", "a"), New("", "b"), New("", "c")
	root.Append(a)
	root.Append(c)
	if err := root.InsertAt(1, b); err != nil {
		t.Fatal(err)
	}
	if got := childLocals(root); got != "a,b,c" {
		t.Fatalf("after insert: %s", got)
	}
	if !root.RemoveChild(b) {
		t.Fatal("RemoveChild returned false")
	}
	if got := childLocals(root); got != "a,c" {
		t.Fatalf("after remove: %s", got)
	}
	if root.RemoveChild(b) {
		t.Fatal("double remove returned true")
	}
	d := New("", "d")
	if !root.ReplaceChild(c, d) {
		t.Fatal("ReplaceChild returned false")
	}
	if got := childLocals(root); got != "a,d" {
		t.Fatalf("after replace: %s", got)
	}
	if d.Parent() != root {
		t.Fatal("replacement not reparented")
	}
	if err := root.InsertAt(99, c); err == nil {
		t.Fatal("InsertAt out of range succeeded")
	}
}

func childLocals(e *Element) string {
	names := make([]string, 0, len(e.Children))
	for _, c := range e.Children {
		names = append(names, c.Name.Local)
	}
	return strings.Join(names, ",")
}

func TestSetAttrOverwrites(t *testing.T) {
	e := New("", "a")
	e.SetAttr("", "k", "1")
	e.SetAttr("", "k", "2")
	if len(e.Attrs) != 1 {
		t.Fatalf("attrs = %d, want 1", len(e.Attrs))
	}
	if v := e.AttrValue("", "k"); v != "2" {
		t.Fatalf("k = %q, want 2", v)
	}
}

func TestTakeChildren(t *testing.T) {
	e := MustParseString(`<r><a/><b><c/></b></r>`)
	kids := e.TakeChildren()
	if len(kids) != 2 || len(e.Children) != 0 {
		t.Fatalf("took %d children, %d left", len(kids), len(e.Children))
	}
	for _, k := range kids {
		if k.Parent() != nil {
			t.Fatalf("%v still has a parent", k.Name)
		}
	}
	if c := kids[1].Child("", "c"); c == nil || c.Parent() != kids[1] {
		t.Fatal("a taken child must keep its own subtree")
	}
	if New("", "leaf").TakeChildren() != nil {
		t.Fatal("a leaf has no children to take")
	}
}

func TestFindAndFindAll(t *testing.T) {
	e := MustParseString(`<r><x v="1"/><y><x v="2"/></y><x v="3"/></r>`)
	first := e.Find(func(n *Element) bool { return n.Name.Local == "x" })
	if first == nil || first.AttrValue("", "v") != "1" {
		t.Fatalf("Find = %v", first)
	}
	all := e.FindAll(func(n *Element) bool { return n.Name.Local == "x" })
	if len(all) != 3 {
		t.Fatalf("FindAll = %d elements, want 3", len(all))
	}
	// Document order.
	if all[1].AttrValue("", "v") != "2" || all[2].AttrValue("", "v") != "3" {
		t.Fatal("FindAll not in document order")
	}
}

func TestDeepText(t *testing.T) {
	e := MustParseString(`<r><a>foo</a><b><c>bar</c></b></r>`)
	if got := e.DeepText(); got != "foobar" {
		t.Fatalf("DeepText = %q", got)
	}
}

func TestPath(t *testing.T) {
	e := MustParseString(`<r><a><b><c>leaf</c></b></a></r>`)
	if got := e.Path("a", "b", "c"); got == nil || got.Text != "leaf" {
		t.Fatalf("Path = %v", got)
	}
	if got := e.Path("a", "missing"); got != nil {
		t.Fatal("Path to missing element should be nil")
	}
}

func TestEqualAttrOrderInsensitive(t *testing.T) {
	a := MustParseString(`<e x="1" y="2"/>`)
	b := MustParseString(`<e y="2" x="1"/>`)
	if !Equal(a, b) {
		t.Fatal("Equal should ignore attribute order")
	}
	c := MustParseString(`<e x="1" y="3"/>`)
	if Equal(a, c) {
		t.Fatal("Equal should detect differing attribute values")
	}
}

func TestEqualChildOrderSensitive(t *testing.T) {
	a := MustParseString(`<e><x/><y/></e>`)
	b := MustParseString(`<e><y/><x/></e>`)
	if Equal(a, b) {
		t.Fatal("Equal should be child-order sensitive")
	}
}

func TestChildrenNamed(t *testing.T) {
	e := MustParseString(`<r xmlns:a="urn:a"><a:x/><x/><a:x/></r>`)
	if got := len(e.ChildrenNamed("urn:a", "x")); got != 2 {
		t.Fatalf("namespaced ChildrenNamed = %d, want 2", got)
	}
	if got := len(e.ChildrenNamed("", "x")); got != 3 {
		t.Fatalf("any-namespace ChildrenNamed = %d, want 3", got)
	}
}

// TestRoundTripQuick property-tests that text content survives a
// marshal/parse round trip for arbitrary printable strings.
func TestRoundTripQuick(t *testing.T) {
	f := func(text string) bool {
		text = strings.TrimSpace(sanitize(text))
		e := New("urn:t", "doc")
		e.Text = text
		out, err := MarshalString(e)
		if err != nil {
			return false
		}
		back, err := ParseString(out)
		if err != nil {
			return false
		}
		return back.Text == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sanitize removes characters not representable in XML 1.0 character data.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == 0x9 || r == 0xA || r == 0xD ||
			(r >= 0x20 && r <= 0xD7FF) ||
			(r >= 0xE000 && r <= 0xFFFD) {
			return r
		}
		return -1
	}, s)
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errFail
	}
	w.n -= len(p)
	if w.n < 0 {
		return len(p) + w.n, errFail
	}
	return len(p), nil
}

var errFail = errors.New("sink full")

func TestMarshalWriterErrors(t *testing.T) {
	e := MustParseString(`<a b="c"><d>text</d><e/></a>`)
	full, err := MarshalString(e)
	if err != nil {
		t.Fatal(err)
	}
	// Failing at every possible prefix must surface the error, never
	// panic or succeed.
	for n := 0; n < len(full); n++ {
		if err := Marshal(&failWriter{n: n}, e); err == nil {
			t.Fatalf("Marshal with %d-byte sink succeeded", n)
		}
	}
}

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseString on junk did not panic")
		}
	}()
	MustParseString("<broken")
}
