package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// oracleParse is the parser this package shipped until the direct
// scanner replaced it: encoding/xml's strict token loop, moved here
// unchanged. It is the reference the scanner is held to — a gateway
// whose parser reads a message differently from its peers' is a
// security problem, so the two must accept, reject and build alike.
func oracleParse(r io.Reader) (*Element, error) {
	dec := xml.NewDecoder(r)
	var root *Element
	var stack []*Element
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := New(t.Name.Space, t.Name.Local)
			for _, a := range t.Attr {
				// Drop namespace declarations; the decoder has already
				// resolved prefixes into Name.Space.
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.Attrs = append(el.Attrs, Attr{
					Name:  Name{Space: a.Name.Space, Local: a.Name.Local},
					Value: a.Value,
				})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = el
			} else {
				stack[len(stack)-1].Append(el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := string(t)
				if strings.TrimSpace(text) != "" || stack[len(stack)-1].Text != "" {
					stack[len(stack)-1].Text += text
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unexpected EOF inside element %s", stack[len(stack)-1].Name.Local)
	}
	// Whitespace-only text on elements that have children is formatting
	// noise from indented documents; strip it.
	root.Walk(func(e *Element) bool {
		if len(e.Children) > 0 && strings.TrimSpace(e.Text) == "" {
			e.Text = ""
		} else {
			e.Text = strings.TrimSpace(e.Text)
		}
		return true
	})
	return root, nil
}

// oracleMarshal is the serializer this package shipped before the
// append-only one, moved here unchanged but for collecting its output
// in a string: fmt and encoding/xml.EscapeText, one write per piece.
// Marshal must produce the same bytes.
func oracleMarshal(e *Element) string {
	m := &oracleMarshaler{prefixes: map[string]string{}}
	m.collect(e)
	var sb strings.Builder
	m.write(&sb, e, true)
	return sb.String()
}

type oracleMarshaler struct {
	prefixes map[string]string // namespace URI -> prefix
	order    []string          // URIs in order of first use
}

func (m *oracleMarshaler) collect(e *Element) {
	m.need(e.Name.Space)
	for _, a := range e.Attrs {
		m.need(a.Name.Space)
	}
	for _, c := range e.Children {
		m.collect(c)
	}
}

func (m *oracleMarshaler) need(space string) {
	if space == "" {
		return
	}
	if _, ok := m.prefixes[space]; ok {
		return
	}
	m.prefixes[space] = "ns" + strconv.Itoa(len(m.order)+1)
	m.order = append(m.order, space)
}

func (m *oracleMarshaler) qname(n Name) string {
	if n.Space == "" {
		return n.Local
	}
	return m.prefixes[n.Space] + ":" + n.Local
}

func (m *oracleMarshaler) write(w io.Writer, e *Element, root bool) {
	fmt.Fprintf(w, "<%s", m.qname(e.Name))
	if root {
		for _, uri := range m.order {
			fmt.Fprintf(w, ` xmlns:%s="%s"`, m.prefixes[uri], oracleEscape(uri))
		}
	}
	for _, a := range e.Attrs {
		fmt.Fprintf(w, ` %s="%s"`, m.qname(a.Name), oracleEscape(a.Value))
	}
	if len(e.Children) == 0 && e.Text == "" {
		io.WriteString(w, "/>")
		return
	}
	io.WriteString(w, ">")
	if e.Text != "" {
		xml.EscapeText(w, []byte(e.Text))
	}
	for _, c := range e.Children {
		m.write(w, c, false)
	}
	fmt.Fprintf(w, "</%s>", m.qname(e.Name))
}

func oracleEscape(s string) string {
	var sb strings.Builder
	xml.EscapeText(&sb, []byte(s))
	return sb.String()
}

// TestMarshalMatchesOracle covers what no parsed tree holds: strings
// that are not XML characters, and enough namespaces to leave the
// linear scan and the two-digit prefixes behind.
func TestMarshalMatchesOracle(t *testing.T) {
	root := New("urn:root", "r")
	root.SetAttr("", "a", "q\"uote's <&> \t\n\r end")
	root.Append(NewText("", "bad", "nul\x00 bell\x07 del\x7f high\xff cut\xe2\x82 fffe\uFFFE fffd\uFFFD ok\u00e9\U0001F600"))
	for i := 0; i < 120; i++ {
		c := NewText(fmt.Sprintf("urn:ns:%d&", i), "c", strconv.Itoa(i))
		c.SetAttr(fmt.Sprintf("urn:attr:%d", i%7), "k", "v")
		root.Append(c)
	}
	got, err := MarshalString(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleMarshal(root); got != want {
		t.Fatalf("Marshal wrote\n%s\nthe oracle\n%s", got, want)
	}
}

// matchesOracle is the property both differential tests check, and
// reports whether the parsers accepted doc: the scanner rejects exactly
// what the oracle rejects, builds the same tree (attribute order and
// parent links included), never hands out a piece of its input, writes
// it as the old serializer did, and what it writes parses back.
func matchesOracle(doc string) (accepted bool, err error) {
	want, wantErr := oracleParse(strings.NewReader(doc))
	got, gotErr := ParseString(doc)
	if (wantErr == nil) != (gotErr == nil) {
		return false, fmt.Errorf("oracle error %v, scanner error %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if !strings.HasPrefix(gotErr.Error(), "xmltree: ") {
			return false, fmt.Errorf("scanner error %q lacks the package prefix", gotErr)
		}
		return false, nil
	}
	if err := sameTree(want, got, nil); err != nil {
		return true, err
	}
	if !Equal(want, got) {
		return true, fmt.Errorf("Equal(oracle, scanner) is false")
	}
	if err := aliases(got, doc); err != nil {
		return true, err
	}
	out, err := MarshalString(got)
	if err != nil {
		return true, fmt.Errorf("marshal of parsed tree: %v", err)
	}
	if want := oracleMarshal(got); out != want {
		return true, fmt.Errorf("Marshal wrote\n%s\nthe oracle\n%s", out, want)
	}
	// Some names both parsers build have no serialisation to come back
	// from, with the old marshaler as with this one.
	if got.Find(unwritable) != nil || unwritable(got) {
		return true, nil
	}
	back, err := ParseString(out)
	if err != nil {
		return true, fmt.Errorf("re-parse of marshaled tree: %v\n%s", err, out)
	}
	if !Equal(got, back) {
		return true, fmt.Errorf("round trip changed the tree: %s", out)
	}
	return true, nil
}

// unwritable reports whether Marshal cannot write one of e's names as
// it was read. Both parsers take "a:" and ":a" for local names, and
// Marshal puts a prefix in front, which makes two colons. And a name
// like "p:0" is checked whole, so under xmlns:p="" it leaves the local
// name "0" in no namespace, which Marshal writes bare.
func unwritable(e *Element) bool {
	bad := func(n Name) bool {
		return strings.Contains(n.Local, ":") || n.Space == "" && !isName(n.Local)
	}
	for _, a := range e.Attrs {
		if bad(a.Name) {
			return true
		}
	}
	return bad(e.Name)
}

func sameTree(want, got, parent *Element) error {
	if want.Name != got.Name || want.Text != got.Text {
		return fmt.Errorf("oracle has %v %q, scanner %v %q", want.Name, want.Text, got.Name, got.Text)
	}
	if got.Parent() != parent {
		return fmt.Errorf("%v: parent link is wrong", got.Name)
	}
	if len(want.Attrs) != len(got.Attrs) || len(want.Children) != len(got.Children) {
		return fmt.Errorf("%v: oracle has %d attrs and %d children, scanner %d and %d",
			want.Name, len(want.Attrs), len(want.Children), len(got.Attrs), len(got.Children))
	}
	for i := range want.Attrs {
		if want.Attrs[i] != got.Attrs[i] {
			return fmt.Errorf("%v: attr %d: oracle %v, scanner %v", want.Name, i, want.Attrs[i], got.Attrs[i])
		}
	}
	for i := range want.Children {
		if err := sameTree(want.Children[i], got.Children[i], got); err != nil {
			return err
		}
	}
	return nil
}

// aliases reports the first string of the tree that points into doc.
func aliases(root *Element, doc string) error {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	hi := lo + uintptr(len(doc))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && doc != "" && lo <= p && p < hi
	}
	var err error
	root.Walk(func(e *Element) bool {
		bad := inside(e.Name.Space) || inside(e.Name.Local) || inside(e.Text)
		for _, a := range e.Attrs {
			bad = bad || inside(a.Name.Space) || inside(a.Name.Local) || inside(a.Value)
		}
		if bad && err == nil {
			err = fmt.Errorf("%v holds a string that aliases the input", e.Name)
		}
		return err == nil
	})
	return err
}

// benchRequests re-types the three request shapes of benchmark/gen.go
// (the 330 B getCatalog, the element-dense getCatalog and submitOrder)
// with `lines` <line> elements in the notes subtree; 700 is the size
// the benchmark sends.
func benchRequests(lines int) []string {
	const (
		open  = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><m:ConversationID xmlns:m="urn:masc:headers">conv-7-0000042</m:ConversationID></soapenv:Header><soapenv:Body>`
		close = `</soapenv:Body></soapenv:Envelope>`
	)
	words := []string{"fragile", "urgent", "gift", "pallet", "dock", "north", "south", "hold"}
	var notes strings.Builder
	notes.WriteString("<notes>")
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&notes, "<line>%s %s %04d</line>", words[i%len(words)], words[(i*5+3)%len(words)], (i*7919)%10000)
	}
	notes.WriteString("</notes>")
	return []string{
		open + `<getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog>` + close,
		open + `<getCatalog xmlns="urn:wsi:scm"><category>audio</category>` + notes.String() + `</getCatalog>` + close,
		open + `<submitOrder xmlns="urn:wsi:scm"><customerID>cust-7-00042</customerID><items><item><sku>605003</sku><qty>1</qty></item></items>` + notes.String() + `</submitOrder>` + close,
	}
}

// handCases are the corners of XML the shipped documents do not reach.
var handCases = []string{
	`<a/>`,
	`<a b="c">text</a>`,
	`<ns:a xmlns:ns="urn:x"><b/><c d="e&amp;f"/></ns:a>`,
	`<a><b>one</b><b>two</b></a>`,
	`<a xmlns="urn:d"><b xmlns="urn:e"><c/></b><d xmlns=""><e/></d></a>`,
	`<a><![CDATA[x < y && "z" ]] ]>]]></a>`,
	`<a>one<![CDATA[ two ]]>three<!-- c -->four</a>`,
	`<a>x]]<![CDATA[]]>></a>`,
	`<a>0<![CDATA[]]></a>`, // found by the fuzzer: "0"+"" is still a piece of the input
	`<a>]]></a>`,
	`<a b="]]>"/>`,
	`<!-- head --><a><!-- in - side --></a><!-- tail -->`,
	`<a><!-- bad -- comment --></a>`,
	`<a><!---></a>`,
	`<a><!----></a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?>` + "\n" + `<a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<a><?xml version="2.0"?></a>`,
	`<?xml?><a/>`,
	`<?xml-stylesheet href="a.xsl"?><a><?php echo "?" ?></a>`,
	`<?><a/>`,
	`<?a:b:c ?><a/>`,
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!ENTITY e "v>"> <!-- c > --> ]><a/>`,
	`<!DOCTYPE a [<!ENTITY e 'it"s'>]><a>&e;</a>`,
	`<!DOCTYPE a SYSTEM "a.dtd" [<!x<y>>]><a/>`,
	`<!><a/>`,
	`<!>><a/>`,
	`<a>&#65;&#x42;&#x63;&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a b="&#10;&#x9;&lt;"/>`,
	`<a>&#0;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#99999999999999999999999;</a>`,
	`<a>&#18446744073709551681;</a>`, // 2^64 + 'A'
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#X41;</a>`,
	`<a>&nbsp;</a>`,
	`<a>&amp</a>`,
	`<a>&;</a>`,
	`<a>& b</a>`,
	`<a>]&#93;></a>`,
	"<a>one\r\ntwo\rthree\n\r&#13;\r&#10;</a>",
	"<a b=\"x\r\ny\tz\"/>",
	"<a>x\r<![CDATA[\ny\r\n]]></a>",
	"<a>\u00a0 padded \u2003</a>",
	"<a>\x01</a>",
	"<a>\x7f</a>",
	"<a>\xff</a>",
	"<a>\xef\xbf\xbe</a>",
	"<a>\xef\xbf\xbd</a>",
	"<a>\xed\xa0\x80</a>",
	"<a b=\"\xc3\"/>",
	"<a><!-- \xff --><?p \xff?></a>",
	"\ufeff<a/>",
	`<p:a>undeclared</p:a>`,
	`<a p:b="c" xmlns:q="urn:q" q:d="e"/>`,
	`<a xml:lang="en"><xml:b/></a>`,
	`<a xmlns:xml="urn:other" xml:lang="en"/>`,
	`<a:b:c/>`,
	`<a b:c:d="e"/>`,
	`<:a/>`,
	`<a:/>`,
	`<a :b="c" d:="e"/>`,
	`<xmlns/>`,
	`<a xmlns="urn:d"><xmlns/><xmlns:b/></a>`,
	`<a xmlns:p="xmlns" p:b="dropped" c="kept"/>`,
	`<a xmlns:p="" p:xmlns="dropped" p:c="kept"><p:d/></a>`,
	`<a xmlns:xmlns="urn:x" xmlns:="y"/>`,
	`<a xmlns:p="urn:1" xmlns:p="urn:2"><p:b/></a>`,
	`<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"/><p:c/></p:a>`,
	`<p:a xmlns:p="urn:1" xmlns:q="urn:1"></q:a>`,
	`<a b="1" b="2"/>`,
	`<a b="c"d='e'/>`,
	`<a b = "c" / >`,
	`<a b="c" /  >`,
	`<a b="<"/>`,
	`<a b=c/>`,
	`<a b/>`,
	`<a b="c/>`,
	`<a =/>`,
	`<a` + "\n\t" + `b="c"` + "\r\n" + `></a` + "\n" + `>`,
	`</a>`,
	`<a></a></a>`,
	`<a></b>`,
	`<a></a b>`,
	`<a></ a>`,
	`< a/>`,
	`<a/><b/>`,
	`<a/>tail &amp; text`,
	`head text<a/>`,
	`&000<a></a>`,
	`<a/>&bad;`,
	"<a/>\xff",
	`<a/>]]>`,
	`not xml at all`,
	`<a>`,
	`<a><b></a>`,
	`<a`,
	`<a `,
	`<a b`,
	`<a b=`,
	`<a b="`,
	`<a/`,
	`<`,
	`<!`,
	`<!-`,
	`<!--`,
	`<!-- x --`,
	`<![`,
	`<![CDATA[`,
	`<a><![CDATA[x]]`,
	`<![CDAT[x]]><a/>`,
	`<!- x --><a/>`,
	`<?`,
	`<?x`,
	`<?x ?`,
	`<!DOCTYPE a [`,
	`<!DOCTYPE a "`,
	`<!DOCTYPE a <!-`,
	`<1a/>`,
	`<-a/>`,
	`<a.b-c_d1/>`,
	"<\u00e9l\u00e9ment attribut\u00e9=\"v\">\u00e9</\u00e9l\u00e9ment>",
	"<a\u00b7b/>",
	"<\u00b7a/>",
	"<a\u00d7/>",
	"<a\xff/>",
	"<\u4e2d\u6587/>",
	"<a\U00010000/>",
	``,
	` `,
	// More declarations in scope than resolve scans: shadowing, a pop
	// that brings a hidden binding back, and one that forgets a prefix.
	`<r xmlns:a="1" xmlns:b="2" xmlns:c="3" xmlns:d="4" xmlns:e="5" xmlns:f="6" xmlns:g="7" xmlns:h="8" xmlns:i="9"><a:x i:k="v"><b:y xmlns:a="10" xmlns:j="11" a:k="v" j:k="v"><a:z/></b:y><a:y j:k="v"/></a:x><j:x/></r>`,
	`<r A:0=""xmlns:A=""></r>`, // found by the fuzzer: a name Marshal writes as "0"
	`<r xmlns:a="1" xmlns:b="2" xmlns:c="3" xmlns:d="4"><m xmlns:a="5" xmlns:a="6" xmlns:e="7" xmlns:f="8" xmlns:g="9" xmlns="10"><a:x xmlns:a="" xmlns=""><a:y/><z/></a:x><a:x/><z/></m><a:x/><z/></r>`,
}

// corpus is every document the daemon reads at boot or in the
// benchmark, plus handCases. It seeds the fuzz target and the mutator.
func corpus(t testing.TB) []string {
	t.Helper()
	var docs []string
	for _, pattern := range []string{"../../policies/*.xml", "../../benchmark/policies/*.xml"} {
		files, _ := filepath.Glob(pattern)
		if len(files) == 0 {
			t.Fatalf("no files match %s", pattern)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, string(b))
		}
	}
	// The hosted process definition, cut out of the Go source that
	// embeds it.
	src, err := os.ReadFile("../daemon/process.go")
	if err != nil {
		t.Fatal(err)
	}
	_, def, ok := strings.Cut(string(src), "const orderingProcessXML = `")
	if def, _, ok = strings.Cut(def, "`"); !ok {
		t.Fatal("orderingProcessXML not found in ../daemon/process.go")
	}
	docs = append(docs, def)
	// A contract as wsdl.Contract.Encode writes it (scm.RetailerContract).
	docs = append(docs, `<ns1:contract xmlns:ns1="urn:masc:wsdl" name="Retailer" targetNamespace="urn:wsi:scm"><ns1:operation name="getCatalog"><ns1:documentation>Returns the product catalog, optionally filtered by category.</ns1:documentation></ns1:operation><ns1:operation name="submitOrder"><ns1:documentation>Submits a purchase order; items ship from the first warehouse with stock.</ns1:documentation><ns1:inputPart name="customerID"/><ns1:fault name="InvalidOrderFault"/></ns1:operation></ns1:contract>`)
	docs = append(docs, benchRequests(12)...)
	return append(docs, handCases...)
}

// FuzzParseMatchesOracle holds the scanner to the oracle on arbitrary
// input. CI runs it for 200 000 executions; plain `go test` runs the
// seeds, and TestParseMatchesOracle covers the ground in between.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, doc := range corpus(f) {
		f.Add(doc)
	}
	for _, doc := range benchRequests(700) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if _, err := matchesOracle(doc); err != nil {
			t.Fatalf("%v\ninput: %q", err, doc)
		}
	})
}

// TestParseMatchesOracle drives the same property over a fixed count
// of inputs from a seeded mutator of the corpus, so that tier-1 covers
// more than the seeds without depending on how long it runs.
func TestParseMatchesOracle(t *testing.T) {
	const inputs = 25000
	docs := corpus(t)
	// Two in three inputs start from a well-formed document, so that a
	// good share survives mutation and reaches the tree comparison.
	var valid []string
	for _, doc := range docs {
		if _, err := oracleParse(strings.NewReader(doc)); err == nil {
			valid = append(valid, doc)
		}
	}
	rng := rand.New(rand.NewSource(22))
	accepted := 0
	for i := 0; i < inputs; i++ {
		from := docs
		if i%3 != 0 {
			from = valid
		}
		doc := from[rng.Intn(len(from))]
		for n := 1 + rng.Intn(2); n > 0; n-- {
			doc = mutate(rng, doc, docs)
		}
		ok, err := matchesOracle(doc)
		if err != nil {
			t.Fatalf("input %d: %v\ninput: %q", i, err, doc)
		}
		if ok {
			accepted++
		}
	}
	// Both verdicts must be exercised for the comparison to mean much.
	if accepted < inputs/10 || accepted > inputs*9/10 {
		t.Fatalf("%d of %d mutated inputs were accepted; the mutator has drifted", accepted, inputs)
	}
	t.Logf("%d inputs, %d accepted by both parsers", inputs, accepted)
}

// TestManyNamespaceBindings covers what the corpus never has: more
// declarations in scope than resolve scans. Random documents that
// redeclare a few prefixes at every level must still read as the
// oracle reads them, and a root with thousands of declarations must
// not make every prefixed name below it cost a walk through them —
// counted in bindings compared, which no tree comparison shows.
func TestManyNamespaceBindings(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 500; i++ {
		var b strings.Builder
		nestedBindings(rng, &b, 0)
		doc := b.String()
		if ok, err := matchesOracle(doc); err != nil || !ok {
			t.Fatalf("document %d: accepted %v: %v\ninput: %s", i, ok, err, doc)
		}
	}

	const decls, kids = 3000, 3000
	var b strings.Builder
	b.WriteString("<r")
	for i := 0; i < decls; i++ {
		fmt.Fprintf(&b, ` xmlns:p%d="urn:%d"`, i, i)
	}
	b.WriteString(">")
	for i := 0; i < kids; i++ {
		fmt.Fprintf(&b, `<p%d:e p%d:a="v" q:a="v"/>`, i, (i*7)%decls)
	}
	b.WriteString("</r>")
	doc := b.String()
	p := newParser(doc)
	got, err := p.document()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleParse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(want, got, nil); err != nil {
		t.Fatal(err)
	}
	names := 1 + 3*kids
	if p.compared > maxScannedBindings*names {
		t.Fatalf("resolving %d names under %d declarations compared %d bindings, want at most %d each",
			names, decls, p.compared, maxScannedBindings)
	}
}

// nestedBindings writes an element that declares up to seven of eight
// prefixes (and sometimes the default namespace) afresh, uses declared
// and undeclared prefixes on its name and attributes, and has children
// that do the same, five levels deep.
func nestedBindings(rng *rand.Rand, b *strings.Builder, depth int) {
	prefix := func() string {
		switch n := rng.Intn(11); n {
		case 8:
			return ""
		case 9:
			return "xml:"
		case 10:
			return "undeclared:"
		default:
			return fmt.Sprintf("p%d:", n)
		}
	}
	name := prefix() + "e"
	b.WriteString("<" + name)
	for n := rng.Intn(8); n > 0; n-- {
		switch rng.Intn(10) {
		case 0:
			fmt.Fprintf(b, ` xmlns="urn:%d"`, rng.Intn(3))
		case 1:
			fmt.Fprintf(b, ` xmlns:p%d=""`, rng.Intn(8))
		default:
			fmt.Fprintf(b, ` xmlns:p%d="urn:%d"`, rng.Intn(8), rng.Intn(5))
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(b, ` %sa%d="v"`, prefix(), rng.Intn(3))
		}
	}
	if depth == 5 || rng.Intn(4) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	for n := 1 + rng.Intn(3); n > 0; n-- {
		nestedBindings(rng, b, depth+1)
	}
	b.WriteString("</" + name + ">")
}

// tokens are the pieces of syntax a byte-level mutation seldom makes.
var tokens = []string{
	"<", ">", "/", "</", "/>", "=", `"`, `'`, "&", ";", "&#", "&#x", "&amp;", "&lt;", "&#65;", "&#x0;", "&#xD;",
	"]]>", "]]", "<![CDATA[", "<!--", "-->", "--", "<?", "?>", "<?xml ", `version="1.0"`, `encoding="latin1"`,
	"<!DOCTYPE a [", "]>", "<!", "xmlns", "xmlns:", `xmlns=""`, ` xmlns:p="urn:p"`, "p:", "xml:", ":", " ", "\t", "\n", "\r", "\r\n",
	"\x00", "\x0b", "\x7f", "\xff", "\xc3", "\xef\xbf\xbe", "\xef\xbf\xbd", "\u00e9", "\u00b7", "\u00a0", "<a>", "</a>", "<a/>", "0", "-", ".",
}

func mutate(rng *rand.Rand, doc string, docs []string) string {
	at := func() int { return rng.Intn(len(doc) + 1) }
	span := func() (int, int) {
		i := at()
		return i, i + rng.Intn(min(len(doc)-i, 24)+1)
	}
	switch rng.Intn(8) {
	case 0: // insert a token
		i := at()
		return doc[:i] + tokens[rng.Intn(len(tokens))] + doc[i:]
	case 1: // replace a span with a token
		i, j := span()
		return doc[:i] + tokens[rng.Intn(len(tokens))] + doc[j:]
	case 2: // delete a span
		i, j := span()
		return doc[:i] + doc[j:]
	case 3: // duplicate a span
		i, j := span()
		return doc[:j] + doc[i:j] + doc[j:]
	case 4: // overwrite a byte
		if doc == "" {
			return doc
		}
		i := rng.Intn(len(doc))
		return doc[:i] + string([]byte{byte(rng.Intn(256))}) + doc[i+1:]
	case 5: // truncate
		return doc[:at()]
	case 6: // splice another document's tail on
		other := docs[rng.Intn(len(docs))]
		return doc[:at()] + other[rng.Intn(len(other)+1):]
	default: // move a span
		i, j := span()
		piece, rest := doc[i:j], doc[:i]+doc[j:]
		k := rng.Intn(len(rest) + 1)
		return rest[:k] + piece + rest[k:]
	}
}
