package workflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/masc-project/masc/internal/xmltree"
)

// Checkpoint value format (format v2, docs/persistence.md §"Checkpoint
// value format"). A stored instance checkpoint is ckptMagic followed
// by a chain of chunks, each `kind byte | uvarint length | payload`.
// The first chunk of a chain is a full-snapshot anchor; later chunks
// are deltas appended by the persistence service via the store's
// append op. A value that does not start with ckptMagic is rejected.
//
// Decoding replays the chain left to right; a truncated trailing chunk
// (torn mid-delta crash) is dropped and the prefix wins.
const ckptMagic = byte(0xC2)

// Chunk kinds.
const (
	// chunkFull carries a complete instanceSnapshot XML document — the
	// anchor of a delta chain (and the export/debug representation).
	chunkFull = byte(0x01)
	// chunkDelta carries a field-tagged binary delta against the state
	// accumulated so far.
	chunkDelta = byte(0x02)
)

// Delta field tags. Every field is `tag byte | uvarint length |
// payload`; unknown tags are skipped by length, so the format is
// forward-extensible.
const (
	// tagSeq is the capture sequence number (uvarint) — diagnostic.
	tagSeq = byte(0x01)
	// tagState is the instance lifecycle state (uvarint State value).
	tagState = byte(0x02)
	// tagAdapt is the adaptation-state label (UTF-8 string).
	tagAdapt = byte(0x03)
	// tagVarSet sets a variable: `uvarint nameLen | name | value XML`.
	tagVarSet = byte(0x04)
	// tagVarUnset clears a variable: `name`.
	tagVarUnset = byte(0x05)
	// tagMarkDone adds an activity completion mark: `name`.
	tagMarkDone = byte(0x06)
	// tagMarkClear removes an activity completion mark: `name`.
	tagMarkClear = byte(0x07)
)

// ckptChunkKinds and ckptFieldTags enumerate the v2 vocabulary for the
// format-spec coverage test (every entry must be documented in
// docs/persistence.md).
var ckptChunkKinds = []struct {
	Name string
	Kind byte
}{
	{"full", chunkFull},
	{"delta", chunkDelta},
}

var ckptFieldTags = []struct {
	Name string
	Tag  byte
}{
	{"seq", tagSeq},
	{"state", tagState},
	{"adapt", tagAdapt},
	{"varSet", tagVarSet},
	{"varUnset", tagVarUnset},
	{"markDone", tagMarkDone},
	{"markClear", tagMarkClear},
}

// ErrBadCheckpoint reports a checkpoint value that cannot be decoded
// at all (as opposed to a torn trailing delta, which is tolerated).
var ErrBadCheckpoint = errors.New("workflow: undecodable checkpoint record")

// markChange is one completion-mark transition in an instance's dirty
// set: done=true marks an activity completed, done=false clears the
// mark (a while-loop body resetting for its next iteration).
type markChange struct {
	name string
	done bool
}

// varChange is one variable transition in a delta: val == nil unsets.
type varChange struct {
	name string
	val  *xmltree.Element
}

// ckptDelta is one captured checkpoint: either a full snapshot (full
// != nil, a chain anchor) or the changes since the previous capture.
// State and adaptation label ride along unconditionally — they are
// cheap and make every delta self-positioning.
type ckptDelta struct {
	full  *xmltree.Element
	seq   uint64
	state State
	adapt string
	vars  []varChange
	marks []markChange
}

// captureCheckpoint drains the instance's dirty set into a delta (or,
// when force is set or a structural edit invalidated delta tracking,
// a full snapshot). The capture and the drain are atomic under the
// instance lock, so a chain of captures replays to exactly the live
// state at each capture point.
func (in *Instance) captureCheckpoint(force bool) ckptDelta {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ckptSeq++
	d := ckptDelta{seq: in.ckptSeq, state: in.state, adapt: in.adaptState}
	if force || in.ckptFull {
		d.full = in.snapshotLocked()
		in.ckptFull = false
		in.ckptVars = nil
		in.ckptMarks = nil
		return d
	}
	if len(in.ckptVars) > 0 {
		names := make([]string, 0, len(in.ckptVars))
		for n := range in.ckptVars {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var cp *xmltree.Element
			if v := in.vars[n]; v != nil {
				cp = v.Copy()
			}
			d.vars = append(d.vars, varChange{name: n, val: cp})
		}
		in.ckptVars = nil
	}
	if len(in.ckptMarks) > 0 {
		d.marks = in.ckptMarks
		in.ckptMarks = nil
	}
	return d
}

// dirtyVarLocked records a variable change for the next delta capture.
// Callers hold in.mu.
func (in *Instance) dirtyVarLocked(name string) {
	if in.ckptFull {
		return
	}
	if in.ckptVars == nil {
		in.ckptVars = make(map[string]struct{})
	}
	in.ckptVars[name] = struct{}{}
}

// dirtyMarkLocked records a completion-mark transition for the next
// delta capture. Callers hold in.mu.
func (in *Instance) dirtyMarkLocked(name string, done bool) {
	if in.ckptFull {
		return
	}
	in.ckptMarks = append(in.ckptMarks, markChange{name: name, done: done})
}

// dirtyTreeLocked invalidates delta tracking after a structural edit:
// the next capture anchors a fresh full snapshot. Callers hold in.mu.
func (in *Instance) dirtyTreeLocked() {
	in.ckptFull = true
	in.ckptVars = nil
	in.ckptMarks = nil
}

// encodeCheckpoint renders a captured delta as one v2 chunk. A full
// capture yields the chain anchor (the caller stores it with put); a
// delta yields an append chunk.
func encodeCheckpoint(d ckptDelta) ([]byte, error) {
	if d.full != nil {
		text, err := xmltree.MarshalString(d.full)
		if err != nil {
			return nil, err
		}
		buf := []byte{ckptMagic, chunkFull}
		buf = binary.AppendUvarint(buf, uint64(len(text)))
		return append(buf, text...), nil
	}

	var body []byte
	appendField := func(tag byte, payload []byte) {
		body = append(body, tag)
		body = binary.AppendUvarint(body, uint64(len(payload)))
		body = append(body, payload...)
	}
	appendField(tagSeq, binary.AppendUvarint(nil, d.seq))
	appendField(tagState, binary.AppendUvarint(nil, uint64(d.state)))
	appendField(tagAdapt, []byte(d.adapt))
	for _, v := range d.vars {
		if v.val == nil {
			appendField(tagVarUnset, []byte(v.name))
			continue
		}
		text, err := xmltree.MarshalString(v.val)
		if err != nil {
			return nil, err
		}
		payload := binary.AppendUvarint(nil, uint64(len(v.name)))
		payload = append(payload, v.name...)
		payload = append(payload, text...)
		appendField(tagVarSet, payload)
	}
	for _, m := range d.marks {
		if m.done {
			appendField(tagMarkDone, []byte(m.name))
		} else {
			appendField(tagMarkClear, []byte(m.name))
		}
	}

	buf := []byte{chunkDelta}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...), nil
}

// DecodeCheckpoint decodes a stored instance-checkpoint value (anchor
// + delta chain) into the equivalent instanceSnapshot document, the
// form Engine.Restore consumes. A truncated trailing chunk (the shape
// a crash mid-append leaves after WAL truncation of an unrelated later
// record) is dropped: the chain prefix is a consistent earlier
// checkpoint.
func DecodeCheckpoint(raw []byte) (*xmltree.Element, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty value", ErrBadCheckpoint)
	}
	if raw[0] != ckptMagic {
		return nil, fmt.Errorf("%w: unknown format byte 0x%02x", ErrBadCheckpoint, raw[0])
	}

	var doc *xmltree.Element
	rest := raw[1:]
	for len(rest) > 0 {
		kind := rest[0]
		n, sz := binary.Uvarint(rest[1:])
		if sz <= 0 || uint64(len(rest)-1-sz) < n {
			// Torn trailing chunk: keep what replayed so far.
			break
		}
		payload := rest[1+sz : 1+sz+int(n)]
		rest = rest[1+sz+int(n):]
		switch kind {
		case chunkFull:
			d, err := xmltree.ParseString(string(payload))
			if err != nil {
				if doc != nil {
					return doc, nil // torn anchor tail after a good prefix
				}
				return nil, fmt.Errorf("%w: anchor: %v", ErrBadCheckpoint, err)
			}
			doc = d
		case chunkDelta:
			if doc == nil {
				return nil, fmt.Errorf("%w: delta chunk before any anchor", ErrBadCheckpoint)
			}
			if err := applyDeltaChunk(doc, payload); err != nil {
				return nil, err
			}
		default:
			// Unknown chunk kind from a future writer: skip it.
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("%w: no decodable anchor", ErrBadCheckpoint)
	}
	return doc, nil
}

// applyDeltaChunk replays one delta chunk's fields onto the snapshot
// document accumulated so far.
func applyDeltaChunk(doc *xmltree.Element, body []byte) error {
	for len(body) > 0 {
		tag := body[0]
		n, sz := binary.Uvarint(body[1:])
		if sz <= 0 || uint64(len(body)-1-sz) < n {
			return fmt.Errorf("%w: truncated delta field 0x%02x", ErrBadCheckpoint, tag)
		}
		payload := body[1+sz : 1+sz+int(n)]
		body = body[1+sz+int(n):]
		switch tag {
		case tagSeq:
			// Diagnostic only.
		case tagState:
			v, vsz := binary.Uvarint(payload)
			if vsz <= 0 {
				return fmt.Errorf("%w: bad state field", ErrBadCheckpoint)
			}
			doc.SetAttr("", "state", State(v).String())
		case tagAdapt:
			doc.SetAttr("", "adaptationState", string(payload))
		case tagVarSet:
			nameLen, vsz := binary.Uvarint(payload)
			if vsz <= 0 || uint64(len(payload)-vsz) < nameLen {
				return fmt.Errorf("%w: bad varSet field", ErrBadCheckpoint)
			}
			name := string(payload[vsz : vsz+int(nameLen)])
			val, err := xmltree.ParseString(string(payload[vsz+int(nameLen):]))
			if err != nil {
				return fmt.Errorf("%w: varSet %q: %v", ErrBadCheckpoint, name, err)
			}
			setSnapshotVar(doc, name, val)
		case tagVarUnset:
			setSnapshotVar(doc, string(payload), nil)
		case tagMarkDone:
			setSnapshotMark(doc, string(payload), true)
		case tagMarkClear:
			setSnapshotMark(doc, string(payload), false)
		default:
			// Unknown field from a future writer: skip by length.
		}
	}
	return nil
}

// setSnapshotVar sets or removes a <variable name=...> under the
// snapshot's <variables> section.
func setSnapshotVar(doc *xmltree.Element, name string, val *xmltree.Element) {
	vars := doc.Child("", "variables")
	if vars == nil {
		vars = xmltree.New(Namespace, "variables")
		doc.Append(vars)
	}
	for _, v := range vars.ChildrenNamed("", "variable") {
		if v.AttrValue("", "name") == name {
			vars.RemoveChild(v)
			break
		}
	}
	if val == nil {
		return
	}
	ve := xmltree.New(Namespace, "variable")
	ve.SetAttr("", "name", name)
	ve.Append(val)
	vars.Append(ve)
}

// setSnapshotMark adds or removes an <activity name=...> completion
// mark under the snapshot's <completed> section.
func setSnapshotMark(doc *xmltree.Element, name string, done bool) {
	completed := doc.Child("", "completed")
	if completed == nil {
		completed = xmltree.New(Namespace, "completed")
		doc.Append(completed)
	}
	for _, a := range completed.ChildrenNamed("", "activity") {
		if a.AttrValue("", "name") == name {
			if done {
				return // already marked
			}
			completed.RemoveChild(a)
			return
		}
	}
	if done {
		e := xmltree.New(Namespace, "activity")
		e.SetAttr("", "name", name)
		completed.Append(e)
	}
}
