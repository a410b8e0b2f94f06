package soap

import (
	"fmt"
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/xmltree"
)

// passthruBody is the shape of the benchmark's vep_passthru request:
// a getCatalog whose notes subtree holds 700 <line> elements, 710
// elements in all, under one ConversationID header.
func passthruBody() string {
	words := []string{"fragile", "urgent", "gift", "pallet", "dock", "north", "south", "hold", "rush", "bulk", "crate", "seal", "stack", "label", "scan", "route"}
	var b strings.Builder
	b.WriteString(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><m:ConversationID xmlns:m="urn:masc:headers">conv-7-0000042</m:ConversationID></soapenv:Header><soapenv:Body><getCatalog xmlns="urn:wsi:scm"><category>audio</category><notes>`)
	for i := 0; i < 700; i++ {
		fmt.Fprintf(&b, "<line>%s %s %04d</line>", words[i%16], words[(i*5+3)%16], (i*7919)%10000)
	}
	b.WriteString(`</notes></getCatalog></soapenv:Body></soapenv:Envelope>`)
	return b.String()
}

func codecCorpus(t *testing.T) map[string]*Envelope {
	t.Helper()
	decode := func(doc string) *Envelope {
		env, err := Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	addressed := NewRequest(payload(t, `<submitOrder xmlns="urn:wsi:scm" xmlns:x="urn:x" x:rush="true"><customerID>c&amp;"1"</customerID></submitOrder>`))
	Addressing{MessageID: "urn:msg:1", To: "inproc://retailer-a", Action: "urn:scm/submitOrder", RelatesTo: "proc-42"}.Apply(addressed)
	SetProcessInstanceID(addressed, "proc-42")
	fault := NewFaultEnvelope(FaultServer, "warehouse <unavailable>")
	fault.Fault.Actor = "urn:warehouse-a"
	fault.Fault.Detail = payload(t, `<info xmlns="urn:wsi:scm"><retryAfter>2</retryAfter></info>`)
	fault.SetHeader(xmltree.NewText(NamespaceMASC, "ConversationID", "conv-1"))
	return map[string]*Envelope{
		"passthru":    decode(passthruBody()),
		"small":       decode(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><m:ConversationID xmlns:m="urn:masc:headers">conv-7-0000001</m:ConversationID></soapenv:Header><soapenv:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog></soapenv:Body></soapenv:Envelope>`),
		"addressed":   addressed,
		"fault":       fault,
		"plain fault": NewFaultEnvelope(FaultClient, "bad request"),
		"empty":       {},
	}
}

// TestEncodeMatchesDocument pins Encode, which serializes the live
// trees, to the bytes of marshaling the copied document — what Encode
// was before — and checks that it leaves the envelope alone.
func TestEncodeMatchesDocument(t *testing.T) {
	for name, env := range codecCorpus(t) {
		want, err := xmltree.MarshalString(env.ToXML())
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Encode wrote\n%s\nthe document marshals to\n%s", name, got, want)
		}
		for _, h := range env.Headers {
			if h.Parent() != nil {
				t.Errorf("%s: Encode reparented header %v", name, h.Name)
			}
		}
		if env.Payload != nil && env.Payload.Parent() != nil {
			t.Errorf("%s: Encode reparented the payload", name)
		}
		back, err := Decode(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := back.MustEncode(); again != got {
			t.Errorf("%s: Encode is not a fixpoint of Decode:\n%s\n%s", name, got, again)
		}
	}
}

// TestDecodeOwnsItsTree: Decode hands the parsed blocks to the
// envelope (no parent left to climb to); FromXML copies and leaves the
// caller's document whole.
func TestDecodeOwnsItsTree(t *testing.T) {
	doc := passthruBody()
	env, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Headers) != 1 || env.Headers[0].Parent() != nil || env.Payload == nil || env.Payload.Parent() != nil {
		t.Fatalf("decoded blocks are not roots: %d headers, payload %v", len(env.Headers), env.Payload)
	}

	root := xmltree.MustParseString(doc)
	before := root.Copy()
	env2, err := FromXML(root)
	if err != nil {
		t.Fatal(err)
	}
	env2.Payload.Append(xmltree.New("", "extra"))
	env2.Headers[0].Text = "changed"
	if !xmltree.Equal(root, before) {
		t.Fatal("FromXML changed, or shares nodes with, the document it was given")
	}
	if env2.Payload.Parent() != nil || root.Child("", "Body").Child("", "getCatalog").Parent() == nil {
		t.Fatal("FromXML must copy: the envelope's payload is parentless, the document's is not")
	}
}

func TestCodecAllocCeilings(t *testing.T) {
	doc := passthruBody()
	env, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"Decode", 800, func() { Decode(doc) }},
		{"Encode", 40, func() { env.Encode() }},
		{"Clone", 15, func() { env.Clone() }},
		{"ToXML", 15, func() { env.ToXML() }},
	} {
		if n := testing.AllocsPerRun(20, c.fn); n > c.ceiling {
			t.Errorf("%s of the %d-byte passthru body: %.0f allocations, ceiling %.0f", c.name, len(doc), n, c.ceiling)
		} else {
			t.Logf("%s: %.0f allocations", c.name, n)
		}
	}
}
