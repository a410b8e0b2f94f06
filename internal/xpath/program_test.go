package xpath

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/masc-project/masc/internal/xmltree"
)

// equivalenceExprs is the table of expressions exercised against both
// evaluators. It covers every AST node kind and every axis the parser
// can produce, plus the function library and the documented deviations
// (unprefixed-name-matches-any-namespace, text()-selects-self).
var equivalenceExprs = []string{
	// Literals, numbers, variables, negation.
	"'hello'",
	"42",
	"-3.5",
	"-(-5)",
	"$amount",
	"$flag",
	// Boolean and relational operators (incl. short circuits).
	"true() or unknown-fn()",
	"false() and unknown-fn()",
	"1 < 2 or 3 > 4",
	"//Amount = 15000",
	"//Amount != 15000",
	"//Amount >= 10000 and //Country = 'Japan'",
	"//Item/Qty > 4",
	"//Item/Price < 50",
	"$flag = //Items/Item",
	// Arithmetic.
	"1 + 2 * (3 div 4) mod 5",
	"//Amount - 5000",
	"sum(//Price) div count(//Price)",
	// Unions.
	"//Qty | //Price",
	"//Item | //Item",
	// Paths: absolute, relative, //, attributes, parent, self, wildcards.
	"/Envelope/Body/PurchaseOrder/CustomerID",
	"//PurchaseOrder/@id",
	"//Item/@sku",
	"//Item[1]/Qty",
	"//Item[3]",
	"//Item[last()]",
	"//Item[position() > 1]",
	"//Item[Qty > 1][Price < 200]",
	"//Items/*",
	"//@*",
	"//Item/..",
	"//Item/.",
	"//CustomerID/text()",
	"//node()",
	"descendant::Item",
	"/Envelope//Price",
	// A // step on an axis whose bases overlap reaches nodes twice.
	"//..",
	"count(//parent::*)",
	"//descendant::Qty",
	"count(//descendant-or-self::Item)",
	"//Items//descendant::*[1]",
	"//Item[@sku='B2']/Price",
	// Prefixed name tests (resolve through env namespaces).
	"//scm:Amount",
	"//scm:*",
	// A prefix bound to another namespace than the element's.
	"//scm:MessageID",
	"count(//scm:Product)",
	// Filter expressions with predicates.
	"(//Item)[2]",
	"(//Qty | //Price)[4]",
	// Function library.
	"count(//Item)",
	"not(//Missing)",
	"boolean(//Item)",
	"number(//Amount)",
	"string(//Country)",
	"concat(//CustomerID, '-', //Country)",
	"contains(//Profile, 'corp')",
	"starts-with(//CustomerID, 'C')",
	"substring(//CustomerID, 2, 2)",
	"substring-before('a=b', '=')",
	"substring-after('a=b', '=')",
	"string-length(//CustomerID)",
	"normalize-space('  a   b ')",
	"name(//Item)",
	"local-name(//PurchaseOrder/@id)",
	"floor(3.7)",
	"ceiling(3.2)",
	"round(2.5)",
	"translate('abc', 'abc', 'xyz')",
	"matches(//CustomerID, '^C[0-9]+$')",
	// Runtime errors must match too.
	"unknown-fn(1)",
	"$undefined",
	"//unbound:Thing",
	"count(1)",
	"1[2]",
	"concat('a')",
	"matches('a', '[')",
	// The shipped process's conditions, on a VarsDoc-shaped document:
	// OrderingProcess's HasStock test, and the path compileVarPath makes
	// of a bare variable name.
	"count(//catalog/getCatalogResponse/Product) > 0",
	"//ship-to.addr/*",
	"sum(//catalog//price) > 1000",
}

// varsDoc has the shape of workflow.Instance.VarsDoc, the document
// workflow <if test> and <assign from> expressions and process-layer
// bindings read: an unqualified <vars> holding one unqualified wrapper
// per variable, named after it, around the variable's namespaced value.
const varsDoc = `<vars><catalog><getCatalogResponse xmlns="urn:wsi:scm">` +
	`<Product><sku>605001</sku><name>TV</name><price>1299.00</price></Product>` +
	`<Product><sku>605002</sku><name>Radio</name><price>49.50</price></Product>` +
	`</getCatalogResponse></catalog>` +
	`<ship-to.addr><Address xmlns="urn:wsi:scm"><City>Sydney</City><Zip>2000</Zip></Address></ship-to.addr>` +
	`</vars>`

// equivRoots are the documents the equivalence tests evaluate on: a
// SOAP envelope with a purchase order, and a VarsDoc-shaped document.
func equivRoots(t *testing.T) []*xmltree.Element {
	t.Helper()
	return []*xmltree.Element{doc(t), xmltree.MustParseString(varsDoc)}
}

func equivEnv() Context {
	return Context{
		Namespaces: map[string]string{"scm": "urn:scm"},
		Vars: map[string]Value{
			"amount": Number(15000),
			"flag":   Bool(true),
		},
	}
}

// assertEquivalent checks that the tree-walking oracle and the
// production Compiled agree on value (or on error text) for one
// expression.
func assertEquivalent(t *testing.T, root *xmltree.Element, env Context, src string) {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	p := c.Program()
	tv, terr := oracleEval(c, root, env)
	pv, perr := p.EvalContext(root, env)
	switch {
	case terr != nil || perr != nil:
		tmsg, pmsg := "", ""
		if terr != nil {
			tmsg = terr.Error()
		}
		if perr != nil {
			pmsg = perr.Error()
		}
		if tmsg != pmsg {
			t.Errorf("%q: tree err=%q, program err=%q", src, tmsg, pmsg)
		}
	case !reflect.DeepEqual(normalizeNaN(tv), normalizeNaN(pv)):
		t.Errorf("%q: tree=%#v, program=%#v", src, tv, pv)
	}
}

// normalizeNaN maps NaN numbers to a sentinel so DeepEqual can compare
// them (NaN != NaN).
func normalizeNaN(v Value) Value {
	if n, ok := v.(Number); ok && math.IsNaN(float64(n)) {
		return String("NaN-sentinel")
	}
	return v
}

func TestProgramEquivalence(t *testing.T) {
	env := equivEnv()
	for _, root := range equivRoots(t) {
		for _, src := range equivalenceExprs {
			assertEquivalent(t, root, env, src)
		}
	}
}

func TestProgramEvalWrappers(t *testing.T) {
	root := doc(t)
	p := MustCompile("count(//Item)").Program()
	if got := p.Source(); got != "count(//Item)" {
		t.Fatalf("Source() = %q", got)
	}
	if n, err := p.EvalNumber(root, Context{}); err != nil || n != 3 {
		t.Fatalf("EvalNumber = %v, %v", n, err)
	}
	if b, err := p.EvalBool(root, Context{}); err != nil || !b {
		t.Fatalf("EvalBool = %v, %v", b, err)
	}
	if s, err := p.EvalString(root, Context{}); err != nil || s != "3" {
		t.Fatalf("EvalString = %q, %v", s, err)
	}
	if _, err := p.EvalNodes(root, Context{}); err == nil {
		t.Fatal("EvalNodes on a number should error")
	}
	ns, err := MustCompile("//Item").Program().EvalNodes(root, Context{})
	if err != nil || len(ns) != 3 {
		t.Fatalf("EvalNodes = %d nodes, %v", len(ns), err)
	}
	if v, err := MustCompile("1").Program().Eval(root); err != nil || v.Number() != 1 {
		t.Fatalf("Eval = %v, %v", v, err)
	}
}

// TestProgramEquivalenceGenerated quick-checks equivalence over
// randomly generated expressions: a seeded generator assembles
// expressions from the grammar, and both evaluators must agree on every
// one (value or error text).
func TestProgramEquivalenceGenerated(t *testing.T) {
	roots := equivRoots(t)
	env := equivEnv()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		src := genExpr(rng, 3)
		for _, root := range roots {
			assertEquivalent(t, root, env, src)
		}
	}
}

// genExpr produces a random well-formed XPath expression of bounded
// depth from the supported grammar.
func genExpr(rng *rand.Rand, depth int) string {
	atoms := []string{
		"1", "2.5", "0", "'x'", "'Japan'", "$amount", "$flag",
		"//Amount", "//Item/Qty", "//Item/@sku", "//Country",
		"/Envelope/Body", "//Missing", "//scm:Amount", "position()",
		"last()", "count(//Item)", "sum(//Price)", "string(//Profile)",
		"//Item[1]", "//Item[Qty > 1]", "(//Qty | //Price)[2]",
		"//CustomerID/text()", "//node()", "descendant::Item", "//Item/..",
		"//catalog/getCatalogResponse/Product", "//ship-to.addr/*",
	}
	if depth <= 0 {
		return atoms[rng.Intn(len(atoms))]
	}
	switch rng.Intn(8) {
	case 0:
		return atoms[rng.Intn(len(atoms))]
	case 1:
		ops := []string{"or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod"}
		return "(" + genExpr(rng, depth-1) + " " + ops[rng.Intn(len(ops))] + " " + genExpr(rng, depth-1) + ")"
	case 2:
		return "not(" + genExpr(rng, depth-1) + ")"
	case 3:
		return "-(" + genExpr(rng, depth-1) + ")"
	case 4:
		return "(//Qty | //Price | //Missing)"
	case 5:
		return "concat('p-', " + genExpr(rng, depth-1) + ")"
	case 6:
		return "boolean(" + genExpr(rng, depth-1) + ")"
	default:
		return "string-length(" + genExpr(rng, depth-1) + ")"
	}
}

// FuzzProgramEquivalence fuzzes arbitrary source text: whatever Compile
// accepts must evaluate identically (value or error) through the
// tree-walking oracle and the production Compiled, on a small document
// and on a VarsDoc-shaped one.
func FuzzProgramEquivalence(f *testing.F) {
	for _, s := range equivalenceExprs {
		f.Add(s)
	}
	roots := []*xmltree.Element{
		xmltree.MustParseString(`<r a="1"><a><b c="d">x</b></a><y>zebra</y><y>7</y></r>`),
		xmltree.MustParseString(varsDoc),
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src)
		if err != nil {
			return
		}
		env := Context{
			Namespaces: map[string]string{"scm": "urn:scm"},
			Vars:       map[string]Value{"var": Bool(false), "amount": Number(1)},
		}
		p := c.Program()
		for _, root := range roots {
			tv, terr := oracleEval(c, root, env)
			pv, perr := p.EvalContext(root, env)
			switch {
			case (terr == nil) != (perr == nil):
				t.Fatalf("%q: tree err=%v, program err=%v", src, terr, perr)
			case terr != nil:
				if terr.Error() != perr.Error() {
					t.Fatalf("%q: tree err=%q, program err=%q", src, terr, perr)
				}
			case !reflect.DeepEqual(normalizeNaN(tv), normalizeNaN(pv)):
				t.Fatalf("%q: tree=%#v, program=%#v", src, tv, pv)
			}
		}
	})
}

// TestLowerRejectsUnknownShape: a syntax node the lowering has no case
// for is an error for Compile to report, not a panic at evaluation.
func TestLowerRejectsUnknownShape(t *testing.T) {
	for _, e := range []expr{nil, binaryExpr{op: "^", lhs: numberExpr{1}, rhs: numberExpr{2}}} {
		var l lowerer
		fn := l.expr(e)
		if l.err == nil {
			t.Errorf("lowering %#v: no error (program %v)", e, fn != nil)
		}
	}
}
