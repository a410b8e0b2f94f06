package daemon

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// retryQueueNote heads the docs/observability.md section listing the
// families only a program that builds a bus.RetryQueue registers.
const retryQueueNote = "### Registered only with a retry queue"

// metricFamily matches a family name in markdown. A match ending in _
// is a prefix ("masc_decision_*"), not a family.
var metricFamily = regexp.MustCompile(`masc_[a-z0-9_]+`)

// TestDocumentedMetricFamiliesRegistered boots New with a data dir
// and checks that /api/v1/metrics declares every masc_* family that
// docs/observability.md and docs/persistence.md name, except those the
// retry-queue note lists: mascd builds no retry queue.
func TestDocumentedMetricFamiliesRegistered(t *testing.T) {
	n := newNode(t)
	n.boot(t, Config{DataDir: t.TempDir(), Sync: "batched"})
	hr, err := http.Get(n.srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	exposition, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			registered[strings.Fields(rest)[0]] = true
		}
	}

	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	observability, persistence := read("../../docs/observability.md"), read("../../docs/persistence.md")
	_, note, ok := strings.Cut(observability, retryQueueNote)
	if !ok {
		t.Fatalf("docs/observability.md has no %q section", retryQueueNote)
	}
	note, _, _ = strings.Cut(note, "\n#")
	unregistered := map[string]bool{}
	for _, f := range metricFamily.FindAllString(note, -1) {
		unregistered[f] = true
	}
	if len(unregistered) == 0 {
		t.Fatalf("the %q section lists no family", retryQueueNote)
	}

	for doc, text := range map[string]string{"observability.md": observability, "persistence.md": persistence} {
		for _, f := range metricFamily.FindAllString(text, -1) {
			switch {
			case strings.HasSuffix(f, "_"):
			case unregistered[f] && registered[f]:
				t.Errorf("docs/%s: %s is registered by mascd; take it out of the retry-queue note", doc, f)
			case !unregistered[f] && !registered[f]:
				t.Errorf("docs/%s names %s, which a booted mascd does not register", doc, f)
			}
		}
	}
}
