package xpath

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/xmltree"
)

const purchaseOrder = `<PurchaseOrder xmlns="urn:scm" id="po-1" currency="AUD">
      <CustomerID>C042</CustomerID>
      <Amount>15000</Amount>
      <Country>Japan</Country>
      <Items>
        <Item sku="A1"><Qty>2</Qty><Price>100</Price></Item>
        <Item sku="B2"><Qty>1</Qty><Price>250.5</Price></Item>
        <Item sku="C3"><Qty>5</Qty><Price>10</Price></Item>
      </Items>
      <Profile>corporate</Profile>
    </PurchaseOrder>`

const correlationHeaders = `<s:Header>
    <m:ConversationID xmlns:m="urn:masc:headers">conv-7</m:ConversationID>
    <m:ProcessInstanceID xmlns:m="urn:masc:headers">proc-7</m:ProcessInstanceID>
  </s:Header>`

// viewEnvelopes are the envelope shapes of the view ≡ copy
// differential: decoded as the transport decodes them (header blocks
// and payload taken out of the parsed tree, parentless), plus one
// whose payload still hangs from another tree.
func viewEnvelopes(t *testing.T) map[string]*soap.Envelope {
	t.Helper()
	decode := func(header, body string) *soap.Envelope {
		env, err := soap.Decode(`<s:Envelope xmlns:s="` + soap.NamespaceEnvelope + `">` +
			header + `<s:Body>` + body + `</s:Body></s:Envelope>`)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	held := xmltree.MustParseString(`<holder>` + purchaseOrder + `</holder>`)
	parented := soap.NewRequest(held.Children[0])
	soap.SetConversationID(parented, "conv-9")
	return map[string]*soap.Envelope{
		"headers and payload": decode(correlationHeaders, purchaseOrder),
		"payload only":        decode("", purchaseOrder),
		"fault with detail": decode(correlationHeaders, `<s:Fault><faultcode>s:Server</faultcode>
      <faultstring>backend down</faultstring><faultactor>urn:retailer</faultactor>
      <detail><ServiceFault xmlns="urn:scm"><Reason code="503">busy</Reason></ServiceFault></detail></s:Fault>`),
		"payload with a parent elsewhere": parented,
	}
}

// viewExprs climb from the blocks a view grafts onto its shell (header
// blocks, payload, fault detail) and from the shell itself.
var viewExprs = []string{
	"..",
	"parent::*",
	"/..",
	"//*/..",
	"count(//*/..)",
	"count(//*[not(..)])",
	"local-name(//ConversationID/..)",
	"local-name(//ProcessInstanceID/../..)",
	"//ConversationID/../*",
	"//Header/*/..",
	"//submitOrder/../..",
	"//PurchaseOrder/..",
	"//PurchaseOrder/../..",
	"local-name(//PurchaseOrder/..)",
	"//PurchaseOrder/@id/..",
	"//PurchaseOrder/@id/../..",
	"//Item[../../CustomerID = 'C042']/@sku",
	"//*[../ConversationID]",
	"//*[local-name(..) = 'Body']",
	"//Body/*/parent::*",
	"/Envelope/Body/*/..",
	"local-name(/*/*/*/..)",
	"//detail/*/..",
	"local-name(//ServiceFault/..)",
	"//ServiceFault/../..",
	"local-name(//ServiceFault/../../..)",
	"//Reason/../../../faultstring",
	"//faultcode/..",
	"//node()/..",
	"descendant::*/..",
	"//soap:Body/*/..",
	"count(//soap:*/..)",
	"//Item/../..",
	"(//Qty | //ConversationID)/..",
	"//*[count(..) = 1][last()]",
	"matches(//ConversationID, '^conv-[0-9]+$')",
}

// describe renders a value so that values from different trees compare:
// a node-set as each node's kind, name, string-value and child count.
func describe(v Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return fmt.Sprintf("%T %v", v, v)
	}
	var b strings.Builder
	for _, n := range ns {
		if n.IsAttr() {
			fmt.Fprintf(&b, "@%s=%q; ", n.Name(), n.StringValue())
		} else {
			fmt.Fprintf(&b, "%s[%d]=%q; ", n.Name(), len(n.El.Children), n.StringValue())
		}
	}
	return fmt.Sprintf("NodeSet(%d) %s", len(ns), b.String())
}

func viewEnv() Context {
	env := equivEnv()
	env.Namespaces["soap"] = soap.NamespaceEnvelope
	return env
}

// TestEnvelopeViewMatchesCopy is the view ≡ copy differential: both
// evaluators give the same values and the same errors on an envelope's
// View as on its ToXML copy, and evaluating on the view leaves the
// envelope as it was.
func TestEnvelopeViewMatchesCopy(t *testing.T) {
	ctx := viewEnv()
	exprs := append(append([]string(nil), equivalenceExprs...), viewExprs...)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		exprs = append(exprs, genExpr(rng, 3))
	}
	for name, env := range viewEnvelopes(t) {
		before := env.MustEncode()
		view, cp := env.View(), env.ToXML()
		for _, src := range exprs {
			c, err := Compile(src)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			p := c.Program()
			if got, want := describe(oracleEval(c, view, ctx)), describe(oracleEval(c, cp, ctx)); got != want {
				t.Errorf("%s: tree evaluator on %q: view %s, copy %s", name, src, got, want)
			}
			if got, want := describe(p.EvalContext(view, ctx)), describe(p.EvalContext(cp, ctx)); got != want {
				t.Errorf("%s: program on %q: view %s, copy %s", name, src, got, want)
			}
		}
		if after := env.MustEncode(); after != before {
			t.Errorf("%s: evaluating on the view changed the envelope:\n%s\n%s", name, before, after)
		}
		for _, h := range env.Headers {
			if h.Parent() != nil {
				t.Errorf("%s: header block %s was reparented", name, h.Name)
			}
		}
	}
}

// TestEnvelopeViewConcurrentReaders has goroutines evaluate, through
// both evaluators, on one shared view and on views of their own of the
// same envelope at the same time, while others encode it. Run under
// -race it shows that reading a view writes nothing.
func TestEnvelopeViewConcurrentReaders(t *testing.T) {
	ctx := viewEnv()
	env := viewEnvelopes(t)["headers and payload"]
	shared := env.View()
	var compiled []*Compiled
	var want []string
	for _, src := range viewExprs {
		c := MustCompile(src)
		compiled = append(compiled, c)
		want = append(want, describe(c.EvalContext(env.ToXML(), ctx)))
	}
	encoded := env.MustEncode()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if g%3 == 2 {
					if got := env.MustEncode(); got != encoded {
						t.Errorf("goroutine %d: encoding changed", g)
					}
					continue
				}
				view := shared
				if g%3 == 1 {
					view = env.View()
				}
				for i, c := range compiled {
					if got := describe(oracleEval(c, view, ctx)); got != want[i] {
						t.Errorf("goroutine %d: tree evaluator on %q: %s, want %s", g, c.Source(), got, want[i])
					}
					if got := describe(c.Program().EvalContext(view, ctx)); got != want[i] {
						t.Errorf("goroutine %d: program on %q: %s, want %s", g, c.Source(), got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
