package compile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/telemetry/decision"
)

// HashDocument returns the hex SHA-256 of the document's canonical XML
// serialization (Document.Encode). Hashing the re-serialization rather
// than the input bytes makes the hash independent of authoring
// whitespace and attribute order: two documents that parse to the same
// policies share a hash.
func HashDocument(d *policy.Document) (string, error) {
	text, err := d.Encode()
	if err != nil {
		return "", fmt.Errorf("compile: serialize document %q: %w", d.Name, err)
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:]), nil
}

// revisionLen is how many hex digits of the combined hash form the
// bundle revision.
const revisionLen = 16

// interner deduplicates the small closed vocabulary of QNames repeated
// across policies (subjects, operations, fault types, action names) so
// the compiled set shares one backing string per distinct name.
type interner map[string]string

func (in interner) intern(s string) string {
	if v, ok := in[s]; ok {
		return v
	}
	in[s] = s
	return s
}

// Compile lowers a validated document set into a CompiledSet. Documents
// must already be valid (policy.Validate) — the Repository guarantees
// this before invoking the registered compiler; Compile itself only
// fails on duplicate document names or serialization errors. Lint
// warnings are collected into the set's Diagnostics (and per document
// into DocStatus.Diagnostics); warnings never block compilation.
func Compile(docs []*policy.Document) (*CompiledSet, error) {
	sorted := make([]*policy.Document, len(docs))
	copy(sorted, docs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	s := &CompiledSet{
		docs:          make(map[string]*DocStatus, len(sorted)),
		monBySubject:  make(map[string][]*CompiledMonitoring),
		protBySubject: make(map[string][]*CompiledProtection),
		adaptByEvent:  make(map[event.Type][]*CompiledAdaptation),
	}
	in := make(interner)
	revHash := sha256.New()
	ord := 0

	for _, d := range sorted {
		if _, dup := s.docs[d.Name]; dup {
			return nil, fmt.Errorf("compile: duplicate document name %q", d.Name)
		}
		hash, err := HashDocument(d)
		if err != nil {
			return nil, err
		}
		warnings := Lint(d)
		status := &DocStatus{
			Name:        d.Name,
			SHA256:      hash,
			Monitoring:  len(d.Monitoring),
			Adaptation:  len(d.Adaptation),
			Protection:  len(d.Protection),
			Diagnostics: warnings,
		}
		s.docs[d.Name] = status
		s.Manifest.Documents = append(s.Manifest.Documents, DocManifest{Name: d.Name, SHA256: hash})
		s.Diagnostics = append(s.Diagnostics, warnings...)
		fmt.Fprintf(revHash, "%s:%s\n", d.Name, hash)

		for _, mp := range d.Monitoring {
			s.addMonitoring(d.Name, mp, in, ord)
			ord++
		}
		for _, ap := range d.Adaptation {
			s.addAdaptation(d.Name, ap, in, ord)
			ord++
		}
		for _, pp := range d.Protection {
			s.addProtection(d.Name, pp, in, ord)
			ord++
		}
	}

	for _, bucket := range s.adaptByEvent {
		sortAdaptBucket(bucket)
	}
	sortAdaptBucket(s.adaptWild)

	s.Manifest.Revision = hex.EncodeToString(revHash.Sum(nil))[:revisionLen]
	s.Manifest.CompiledAt = time.Now().UTC()
	return s, nil
}

func sortAdaptBucket(bucket []*CompiledAdaptation) {
	sort.Slice(bucket, func(i, j int) bool { return adaptBefore(bucket[i], bucket[j]) })
}

func (s *CompiledSet) addMonitoring(doc string, mp *policy.MonitoringPolicy, in interner, ord int) {
	cm := &CompiledMonitoring{
		Doc:  in.intern(doc),
		Name: in.intern(mp.Name),
		Scope: policy.Scope{
			Subject:   in.intern(mp.Subject),
			Operation: in.intern(mp.Operation),
		},
		Pre:              compileAssertions(mp.PreConditions, in),
		Post:             compileAssertions(mp.PostConditions, in),
		Thresholds:       mp.Thresholds,
		ValidateContract: mp.ValidateContract,
		ord:              ord,
	}
	if cm.Scope.Subject == "" {
		s.monWild = append(s.monWild, cm)
	} else {
		s.monBySubject[cm.Scope.Subject] = append(s.monBySubject[cm.Scope.Subject], cm)
	}
	s.monitoring++
}

func compileAssertions(src []*policy.Assertion, in interner) []*CompiledAssertion {
	if len(src) == 0 {
		return nil
	}
	out := make([]*CompiledAssertion, len(src))
	for i, a := range src {
		out[i] = &CompiledAssertion{
			Name:      in.intern(a.Name),
			FaultType: in.intern(a.FaultType),
			src:       a,
		}
	}
	return out
}

func (s *CompiledSet) addAdaptation(doc string, ap *policy.AdaptationPolicy, in interner, ord int) {
	ca := &CompiledAdaptation{
		AdaptationPolicy: ap,
		Doc:              in.intern(doc),
		ActionsJoined:    decision.JoinActions(policy.ActionNames(ap.Actions)),
		ord:              ord,
	}
	if ap.Trigger.EventType == "" {
		s.adaptWild = append(s.adaptWild, ca)
	} else {
		s.adaptByEvent[ap.Trigger.EventType] = append(s.adaptByEvent[ap.Trigger.EventType], ca)
	}
	s.adaptation++
}

func (s *CompiledSet) addProtection(doc string, pp *policy.ProtectionPolicy, in interner, ord int) {
	cp := &CompiledProtection{ProtectionPolicy: pp, Doc: in.intern(doc), ord: ord}
	if pp.Subject == "" {
		s.protWild = append(s.protWild, cp)
	} else {
		s.protBySubject[pp.Subject] = append(s.protBySubject[pp.Subject], cp)
	}
	s.protection++
}
