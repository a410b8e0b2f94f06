package xpath

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/masc-project/masc/internal/xmltree"
)

const orderDoc = `
<Envelope xmlns="urn:env">
  <Header>
    <MessageID>msg-1</MessageID>
    <RelatesTo>proc-7</RelatesTo>
  </Header>
  <Body>
    <PurchaseOrder xmlns="urn:scm" id="po-1" currency="AUD">
      <CustomerID>C042</CustomerID>
      <Amount>15000</Amount>
      <Country>Japan</Country>
      <Items>
        <Item sku="A1"><Qty>2</Qty><Price>100</Price></Item>
        <Item sku="B2"><Qty>1</Qty><Price>250.5</Price></Item>
        <Item sku="C3"><Qty>5</Qty><Price>10</Price></Item>
      </Items>
      <Profile>corporate</Profile>
    </PurchaseOrder>
  </Body>
</Envelope>`

func doc(t *testing.T) *xmltree.Element {
	t.Helper()
	e, err := xmltree.ParseString(orderDoc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func evalStr(t *testing.T, root *xmltree.Element, src string) string {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	s, err := c.EvalString(root, Context{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return s
}

func evalBoolT(t *testing.T, root *xmltree.Element, src string) bool {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	b, err := c.EvalBool(root, Context{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return b
}

func evalNum(t *testing.T, root *xmltree.Element, src string) float64 {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	n, err := c.EvalNumber(root, Context{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return n
}

func TestAbsolutePaths(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src, want string
	}{
		{"/Envelope/Header/MessageID", "msg-1"},
		{"/Envelope/Body/PurchaseOrder/CustomerID", "C042"},
		{"//CustomerID", "C042"},
		{"//Item/Qty", "2"}, // first in document order
		{"/Envelope/Body/PurchaseOrder/@id", "po-1"},
		{"//Item[2]/@sku", "B2"},
		{"//Item[last()]/Price", "10"},
		{"//Item[position()=2]/Price", "250.5"},
		{"//Item[Qty > 1][2]/@sku", "C3"},
		{"//Item[@sku='B2']/Qty", "1"},
		{"/Envelope/Body/PurchaseOrder/Items/..", ""}, // parent: PurchaseOrder string value starts with C042...
	}
	for _, tt := range tests[:10] {
		if got := evalStr(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestParentAndSelf(t *testing.T) {
	root := doc(t)
	c := MustCompile("//Items/../CustomerID")
	if got, _ := c.EvalString(root, Context{}); got != "C042" {
		t.Fatalf("parent navigation = %q", got)
	}
	c2 := MustCompile("//CustomerID/.")
	if got, _ := c2.EvalString(root, Context{}); got != "C042" {
		t.Fatalf("self navigation = %q", got)
	}
}

func TestExplicitAxes(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src  string
		want float64
	}{
		{"count(/Envelope/descendant::Item)", 3},
		{"count(//Items/child::Item)", 3},
		{"count(//Item[1]/attribute::sku)", 1},
		{"count(/descendant-or-self::Envelope)", 1},
		{"count(//Qty/parent::Item)", 3},
		{"count(//Qty/self::Qty)", 3},
	}
	for _, tt := range tests {
		if got := evalNum(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestWildcardAndNodeTests(t *testing.T) {
	root := doc(t)
	if got := evalNum(t, root, "count(//Items/*)"); got != 3 {
		t.Fatalf("count(//Items/*) = %v", got)
	}
	if got := evalNum(t, root, "count(/Envelope/*)"); got != 2 {
		t.Fatalf("count(/Envelope/*) = %v", got)
	}
	if got := evalNum(t, root, "count(//Item[1]/node())"); got != 2 {
		t.Fatalf("count(//Item[1]/node()) = %v", got)
	}
	// text() matches elements carrying character data (documented model).
	if got := evalNum(t, root, "count(//Item[1]/*/text())"); got != 2 {
		t.Fatalf("count text() = %v", got)
	}
}

func TestNamespacePrefixes(t *testing.T) {
	root := doc(t)
	env := Context{Namespaces: map[string]string{
		"e": "urn:env",
		"s": "urn:scm",
	}}
	c := MustCompile("/e:Envelope/e:Body/s:PurchaseOrder/s:Amount")
	got, err := c.EvalString(root, env)
	if err != nil {
		t.Fatal(err)
	}
	if got != "15000" {
		t.Fatalf("prefixed path = %q", got)
	}

	// Wrong namespace yields no nodes.
	c2 := MustCompile("/s:Envelope")
	ns, err := c2.EvalNodes(root, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		t.Fatal("matched element in wrong namespace")
	}

	// Unbound prefix is an error.
	c3 := MustCompile("/x:Envelope")
	if _, err := c3.EvalContext(root, env); err == nil {
		t.Fatal("unbound prefix did not error")
	}

	// prefix:* matches any local name in that namespace.
	c4 := MustCompile("count(//s:*)")
	v, err := c4.EvalContext(root, env)
	if err != nil {
		t.Fatal(err)
	}
	// PurchaseOrder, CustomerID, Amount, Country, Items, 3×Item, 3×Qty,
	// 3×Price, Profile = 15 elements in urn:scm.
	if v.Number() != 15 {
		t.Fatalf("count(//s:*) = %v, want 15", v.Number())
	}
}

func TestComparisons(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src  string
		want bool
	}{
		{"//Amount > 10000", true},
		{"//Amount > 20000", false},
		{"//Amount = 15000", true},
		{"//Amount != 15000", false},
		{"//Profile = 'corporate'", true},
		{"//Profile = 'personal'", false},
		{"//Country = 'Japan' and //Amount >= 15000", true},
		{"//Country = 'USA' or //Amount >= 15000", true},
		{"//Country = 'USA' or //Amount > 15000", false},
		{"//Item/Qty > 4", true},   // existential: some Qty > 4
		{"//Item/Qty > 10", false}, // none
		{"not(//Missing)", true},
		{"count(//Item) = 3", true},
		{"3 < 4", true},
		{"'abc' = 'abc'", true},
		{"true() != false()", true},
	}
	for _, tt := range tests {
		if got := evalBoolT(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 div 4", 2.5},
		{"10 mod 3", 1},
		{"-5 + 2", -3},
		{"- - 5", 5},
		{"sum(//Price)", 360.5},
		{"//Amount + 1", 15001},
		{"floor(2.7)", 2},
		{"ceiling(2.1)", 3},
		{"round(2.5)", 3},
	}
	for _, tt := range tests {
		if got := evalNum(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
	if got := evalNum(t, root, "number('oops')"); !math.IsNaN(got) {
		t.Errorf("number('oops') = %v, want NaN", got)
	}
}

func TestStringFunctions(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src  string
		want string
	}{
		{"concat('a','b','c')", "abc"},
		{"substring('12345', 2, 3)", "234"},
		{"substring('12345', 2)", "2345"},
		{"normalize-space('  a   b ')", "a b"},
		{"string(//Amount)", "15000"},
		{"local-name(//PurchaseOrder)", "PurchaseOrder"},
		{"name(/*)", "Envelope"},
		{"string(123)", "123"},
		{"string(1.5)", "1.5"},
		{"string(true())", "true"},
	}
	for _, tt := range tests {
		if got := evalStr(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
	boolTests := []struct {
		src  string
		want bool
	}{
		{"contains(//CustomerID, '04')", true},
		{"starts-with(//CustomerID, 'C')", true},
		{"starts-with(//CustomerID, 'X')", false},
		{"string-length(//CustomerID) = 4", true},
		{"matches(//CustomerID, '^C[0-9]+$')", true},
		{"matches(//Country, 'Jap|Chin')", true},
		{"matches(//Country, '^USA$')", false},
	}
	for _, tt := range boolTests {
		if got := evalBoolT(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestMatchesBadRegexErrors(t *testing.T) {
	root := doc(t)
	c := MustCompile("matches(//Country, '[')")
	if _, err := c.EvalContext(root, Context{}); err == nil {
		t.Fatal("bad regex did not error")
	}
}

func TestVariables(t *testing.T) {
	root := doc(t)
	env := Context{Vars: map[string]Value{
		"threshold": Number(10000),
		"who":       String("corporate"),
	}}
	c := MustCompile("//Amount > $threshold and //Profile = $who")
	got, err := c.EvalBool(root, env)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("variable comparison failed")
	}

	c2 := MustCompile("$undefined")
	if _, err := c2.EvalContext(root, env); err == nil {
		t.Fatal("undefined variable did not error")
	}

	// Vars lists each referenced name once, sorted, wherever it occurs.
	c3 := MustCompile("count(//x[. = $who]) > $threshold or $who = 'a'")
	if got := c3.Vars(); len(got) != 2 || got[0] != "threshold" || got[1] != "who" {
		t.Fatalf("Vars = %q", got)
	}
	if got := c.Vars(); len(got) != 2 {
		t.Fatalf("Vars = %q", got)
	}
	if got := MustCompile("//Amount > 1").Vars(); len(got) != 0 {
		t.Fatalf("Vars of a variable-free expression = %q", got)
	}
}

func TestUnion(t *testing.T) {
	root := doc(t)
	if got := evalNum(t, root, "count(//Qty | //Price)"); got != 6 {
		t.Fatalf("union count = %v, want 6", got)
	}
	// Overlap deduplicates.
	if got := evalNum(t, root, "count(//Qty | //Qty)"); got != 3 {
		t.Fatalf("self-union count = %v, want 3", got)
	}
}

func TestFilterExprWithPath(t *testing.T) {
	root := doc(t)
	// Path rooted at a parenthesized node-set expression.
	if got := evalNum(t, root, "count((//Item)[1]/Qty)"); got != 1 {
		t.Fatalf("(//Item)[1]/Qty count = %v", got)
	}
	if got := evalStr(t, root, "(//Item)[2]/@sku"); got != "B2" {
		t.Fatalf("(//Item)[2]/@sku = %q", got)
	}
}

func TestDescendantFromNestedContext(t *testing.T) {
	root := doc(t)
	if got := evalNum(t, root, "count(/Envelope/Body//Qty)"); got != 3 {
		t.Fatalf("nested // count = %v", got)
	}
	if got := evalStr(t, root, "//Items//Price"); got != "100" {
		t.Fatalf("//Items//Price = %q", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"/Envelope/",
		"foo(",
		"1 +",
		"[x]",
		"@",
		"a b",
		"'unterminated",
		"!x",
		"following-sibling::x", // unsupported axis
		"$",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestFunctionArityErrors(t *testing.T) {
	root := doc(t)
	bad := []string{
		"not()",
		"not(1,2)",
		"contains('a')",
		"concat('a')",
		"position(1)",
		"unknownfn(1)",
	}
	for _, src := range bad {
		c, err := Compile(src)
		if err != nil {
			continue // compile-time rejection also acceptable
		}
		if _, err := c.EvalContext(root, Context{}); err == nil {
			t.Errorf("%q evaluated without error", src)
		}
	}
}

func TestNumberFormatting(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{-3, "-3"},
		{2.5, "2.5"},
		{0, "0"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
	}
	for _, tt := range tests {
		if got := Number(tt.in).String(); got != tt.want {
			t.Errorf("Number(%v).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestValueConversionsQuick(t *testing.T) {
	// Property: for any finite float, Number round-trips through its
	// string form when re-parsed by stringToNumber.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		// Limit to values whose decimal form we print exactly.
		if x != math.Trunc(x) || math.Abs(x) >= 1e15 {
			return true
		}
		s := Number(x).String()
		back, err := strconv.ParseFloat(s, 64)
		return err == nil && back == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBooleanConversionsQuick(t *testing.T) {
	// Property: String(s).Bool() is true iff s is non-empty.
	f := func(s string) bool {
		return String(s).Bool() == (len(s) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAttributeExistence(t *testing.T) {
	root := doc(t)
	if !evalBoolT(t, root, "//PurchaseOrder[@currency]") {
		t.Fatal("attribute existence predicate failed")
	}
	if evalBoolT(t, root, "//PurchaseOrder[@missing]") {
		t.Fatal("missing attribute predicate matched")
	}
	if got := evalStr(t, root, "//PurchaseOrder/@currency"); got != "AUD" {
		t.Fatalf("@currency = %q", got)
	}
}

func TestEmptyNodeSetSemantics(t *testing.T) {
	root := doc(t)
	// Comparisons against empty node-sets are false.
	if evalBoolT(t, root, "//Missing = 'x'") {
		t.Fatal("empty = 'x' should be false")
	}
	if evalBoolT(t, root, "//Missing != 'x'") {
		t.Fatal("empty != 'x' should be false (existential)")
	}
	if got := evalStr(t, root, "//Missing"); got != "" {
		t.Fatalf("string(empty) = %q", got)
	}
}

func TestEvalNodesTypeError(t *testing.T) {
	root := doc(t)
	c := MustCompile("1 + 1")
	if _, err := c.EvalNodes(root, Context{}); err == nil {
		t.Fatal("EvalNodes on number did not error")
	}
}

func TestSourceAccessor(t *testing.T) {
	c := MustCompile("//a")
	if c.Source() != "//a" {
		t.Fatalf("Source = %q", c.Source())
	}
}

func TestStringFunctionsExtended(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src, want string
	}{
		{"substring-before('1999/04/01', '/')", "1999"},
		{"substring-before('abc', 'x')", ""},
		{"substring-after('1999/04/01', '/')", "04/01"},
		{"substring-after('abc', 'x')", ""},
		{"translate('bar', 'abc', 'ABC')", "BAr"},
		{"translate('--aaa--', 'a-', 'A')", "AAA"},
		{"substring-before(//CustomerID, '4')", "C0"},
	}
	for _, tt := range tests {
		if got := evalStr(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestNodeSetComparisonsExistential(t *testing.T) {
	root := doc(t)
	tests := []struct {
		src  string
		want bool
	}{
		// node-set vs node-set: exists a pair satisfying the comparison.
		{"//Item/Qty = //Item/Price", false},
		{"//Qty < //Price", true},  // 2 < 100 etc.
		{"//Price < //Qty", false}, // min price 10, max qty 5 → 10<... wait 10 < 5? no; 10<2 no → false
		{"//Qty != //Qty", true},   // distinct values exist
		{"//Country = //Country", true},
		// node-set vs bool: existence semantics.
		{"//Item = true()", true},
		{"//Missing = true()", false},
		{"//Missing = false()", true},
		// node-set vs number with <=, >=.
		{"//Qty <= 1", true},
		{"//Qty >= 5", true},
		{"5 <= //Qty", true},
		{"1000 < //Price", false},
	}
	for _, tt := range tests {
		if got := evalBoolT(t, root, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalErrorsSurface(t *testing.T) {
	root := doc(t)
	bad := []string{
		"(1 + 2)[1]",       // predicate on non-node-set
		"count(//a | 3)",   // union with non-node-set
		"(1)/x",            // path rooted at number
		"//Item[$missing]", // undefined variable inside predicate
	}
	for _, src := range bad {
		c, err := Compile(src)
		if err != nil {
			continue
		}
		if _, err := c.EvalContext(root, Context{}); err == nil {
			t.Errorf("%q evaluated without error", src)
		}
	}
}

func TestCompiledEvalDefaultContext(t *testing.T) {
	root := doc(t)
	v, err := MustCompile("//Amount").Eval(root)
	if err != nil || v.String() != "15000" {
		t.Fatalf("Eval = %v err=%v", v, err)
	}
}

func TestShortCircuitSkipsErrors(t *testing.T) {
	root := doc(t)
	// The rhs would error (undefined variable), but short-circuiting
	// must prevent its evaluation.
	if !evalBoolT(t, root, "true() or $undefined") {
		t.Fatal("or short-circuit failed")
	}
	if evalBoolT(t, root, "false() and $undefined") {
		t.Fatal("and short-circuit failed")
	}
}
