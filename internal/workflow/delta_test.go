package workflow

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// canonicalSnapshot marshals an instanceSnapshot with its unordered
// sections (<completed>, <variables> — map-iteration order) sorted by
// name, so two equivalent snapshots compare byte-equal.
func canonicalSnapshot(t *testing.T, doc *xmltree.Element) string {
	t.Helper()
	for _, section := range []string{"completed", "variables"} {
		sec := doc.Child("", section)
		if sec == nil {
			continue
		}
		sort.SliceStable(sec.Children, func(i, j int) bool {
			return sec.Children[i].AttrValue("", "name") < sec.Children[j].AttrValue("", "name")
		})
	}
	s, err := xmltree.MarshalString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chainCheckpoint drives the codec directly: captures a checkpoint
// from the instance and appends its encoding to the chain buffer,
// mimicking what the persistence pipeline writes to the store.
func chainCheckpoint(t *testing.T, in *Instance, chain []byte, force bool) []byte {
	t.Helper()
	buf, err := encodeCheckpoint(in.captureCheckpoint(force))
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] == ckptMagic {
		// Anchor chunk: starts a fresh chain (stored with put).
		return buf
	}
	return append(chain, buf...)
}

// TestDeltaChainEquivalence is the core replay property: an anchor
// plus a chain of dirty-tracked deltas decodes to exactly the document
// CheckpointXML produces from the live instance.
func TestDeltaChainEquivalence(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, err := NewDefinition("P",
		NewSequence("main", NewNoOp("a"), NewNoOp("b"), NewNoOp("c")),
		"x", "y")
	if err != nil {
		t.Fatal(err)
	}
	e.Deploy(def)
	inst, err := e.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}

	chain := chainCheckpoint(t, inst, nil, true) // anchor

	inst.SetVar("x", el(t, `<v>1</v>`))
	inst.markDone("a")
	chain = chainCheckpoint(t, inst, chain, false)

	inst.SetVar("x", el(t, `<v>2</v>`)) // overwrite
	inst.SetVar("y", el(t, `<w>deep</w>`))
	inst.markDone("b")
	inst.SetAdaptationState("degraded")
	chain = chainCheckpoint(t, inst, chain, false)

	inst.SetVar("y", nil) // unset
	inst.markDone("c")
	chain = chainCheckpoint(t, inst, chain, false)

	got, err := DecodeCheckpoint(chain)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.CheckpointXML()
	if canonicalSnapshot(t, got) != canonicalSnapshot(t, want) {
		t.Fatalf("delta replay diverged:\n got: %s\nwant: %s",
			canonicalSnapshot(t, got), canonicalSnapshot(t, want))
	}
}

// TestDeltaChainWhileLoopClearedMarks covers mark-clear replay: a
// while loop clears its body's completion marks between iterations,
// and the chain must reproduce that.
func TestDeltaChainWhileLoopClearedMarks(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, err := NewDefinition("P", NewSequence("main", NewNoOp("a"), NewNoOp("b")))
	if err != nil {
		t.Fatal(err)
	}
	e.Deploy(def)
	inst, err := e.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}

	chain := chainCheckpoint(t, inst, nil, true)
	inst.markDone("a")
	inst.markDone("b")
	chain = chainCheckpoint(t, inst, chain, false)
	// Iteration boundary: the loop body resets.
	inst.clearDoneSubtree(FindActivity(inst.TreeCopy(), "main"))
	inst.markDone("a")
	chain = chainCheckpoint(t, inst, chain, false)

	got, err := DecodeCheckpoint(chain)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.CheckpointXML()
	if canonicalSnapshot(t, got) != canonicalSnapshot(t, want) {
		t.Fatalf("mark-clear replay diverged:\n got: %s\nwant: %s",
			canonicalSnapshot(t, got), canonicalSnapshot(t, want))
	}
	// Exactly one mark survives the clear + re-mark sequence.
	completed := got.Child("", "completed")
	if n := len(completed.ChildrenNamed("", "activity")); n != 1 {
		t.Fatalf("replayed %d completion marks, want 1", n)
	}
}

// TestDeltaChainTornTailRestoresPrefix: a truncated trailing delta
// (crash mid-append after WAL tail truncation) is dropped and the
// chain decodes to the previous capture's state.
func TestDeltaChainTornTailRestoresPrefix(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"), "x")
	e.Deploy(def)
	inst, err := e.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}

	chain := chainCheckpoint(t, inst, nil, true)
	inst.SetVar("x", el(t, `<v>stable</v>`))
	chain = chainCheckpoint(t, inst, chain, false)
	wantDoc, err := DecodeCheckpoint(chain)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalSnapshot(t, wantDoc)

	inst.SetVar("x", el(t, `<v>lost-in-crash</v>`))
	full := chainCheckpoint(t, inst, chain, false)
	if len(full) <= len(chain) {
		t.Fatal("third capture added no bytes")
	}

	for cut := len(chain) + 1; cut < len(full); cut++ {
		got, err := DecodeCheckpoint(full[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if canonicalSnapshot(t, got) != want {
			t.Fatalf("cut at %d decoded to unexpected state", cut)
		}
	}
}

// TestDecodeCheckpointRejectsGarbage pins the hard-failure cases: an
// empty value, an unknown format byte, and a delta with no anchor.
func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("not xml at all"),
		{ckptMagic},                          // magic with no chunks
		{ckptMagic, chunkDelta, 0x02, 0, 0},  // delta before anchor
		{ckptMagic, chunkFull, 0x03, 'x', 0}, // anchor is not XML
	} {
		if _, err := DecodeCheckpoint(raw); err == nil {
			t.Fatalf("DecodeCheckpoint(%q) accepted garbage", raw)
		}
	}
}

// TestDecodeCheckpointV1XML pins the single value format: a bare
// instanceSnapshot XML document (what the pre-delta format stored) is
// rejected like any other value that does not start with ckptMagic.
func TestDecodeCheckpointV1XML(t *testing.T) {
	v1 := `<instanceSnapshot xmlns="urn:masc:workflow" id="proc-3" definition="P" state="suspended">
		<tree><noop name="n"/></tree></instanceSnapshot>`
	if _, err := DecodeCheckpoint([]byte(v1)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("v1 decode err = %v, want ErrBadCheckpoint", err)
	}
}

// TestCustomizationEditForcesAnchor: a structural tree edit cannot be
// expressed as a delta, so the next capture must be a full snapshot
// carrying the adapted tree.
func TestCustomizationEditForcesAnchor(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewSequence("main", NewNoOp("a")))
	e.Deploy(def)
	inst, err := e.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	chainCheckpoint(t, inst, nil, true) // consume the birth anchor

	up := NewTreeUpdate().Insert(AtEnd, "", NewNoOp("added"))
	if err := inst.ApplyUpdate(up); err != nil {
		t.Fatal(err)
	}
	d := inst.captureCheckpoint(false)
	if d.full == nil {
		t.Fatal("capture after tree edit did not anchor a full snapshot")
	}
	buf, err := encodeCheckpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := e.Restore(doc)
	if err != nil {
		t.Fatal(err)
	}
	if FindActivity(restored.TreeCopy(), "added") == nil {
		t.Fatal("customized tree lost in anchor round-trip")
	}
}

// TestAsyncPipelineEndToEndEquivalence runs a real process through the
// engine with the async pipeline (batched store + committer) attached
// and checks the stored chain decodes to the live terminal checkpoint
// — including a while loop (mark clears) and variable churn.
func TestAsyncPipelineEndToEndEquivalence(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{Sync: store.SyncBatched, SyncInterval: time.Millisecond})
	defer st.Close()

	ri := newRecordingInvoker()
	count := 0
	ri.respond["tick"] = func(*soap.Envelope) (*soap.Envelope, error) {
		count++
		resp := xmltree.New("", "tickResponse")
		resp.Append(xmltree.NewText("", "n", itoa(count)))
		return soap.NewRequest(resp), nil
	}
	e := NewEngine(ri)
	p := NewPersistenceServiceWith(st, nil, PersistenceOptions{AnchorEvery: 4, DurableFinish: true})
	p.Attach(e)

	def, err := NewDefinition("P",
		NewSequence("main",
			NewAssign("init", Assignment{To: "counter", Literal: el(t, `<n>0</n>`)}),
			NewWhile("loop", xpath.MustCompile("number(//counter/n) < 3"),
				NewSequence("body",
					NewInvoke("tick", InvokeSpec{Endpoint: "x", Operation: "tick", OutputVar: "tickResp"}),
					NewAssign("bump", Assignment{To: "counter", From: xpath.MustCompile("//tickResp/tickResponse/n")}),
				),
			),
		), "counter", "tickResp")
	if err != nil {
		t.Fatal(err)
	}
	e.Deploy(def)
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stt, err := waitDone(t, inst); err != nil || stt != StateCompleted {
		t.Fatalf("state=%s err=%v", stt, err)
	}
	p.Close()

	raw, ok := st.Get(SpaceInstances, inst.ID())
	if !ok {
		t.Fatal("no stored chain")
	}
	got, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.CheckpointXML()
	if canonicalSnapshot(t, got) != canonicalSnapshot(t, want) {
		t.Fatalf("stored chain diverged from live checkpoint:\n got: %s\nwant: %s",
			canonicalSnapshot(t, got), canonicalSnapshot(t, want))
	}
	// With AnchorEvery 4 and well over 4 checkpoints, the chain must
	// contain at least one delta and more than one anchor write.
	exported, err := p.ExportXML(inst.ID())
	if err != nil || !strings.Contains(exported, "instanceSnapshot") {
		t.Fatalf("ExportXML = %q err=%v", exported, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
