package decision

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Counts reports total evaluations and matched verdicts recorded so
// far (across all sites), for benchmark read-back.
func (r *Recorder) Counts() (evaluations, matches uint64) {
	if r == nil {
		return 0, 0
	}
	return r.evaluations.Total(), r.matches.Total()
}

// ReadLog reads every decision record durably written under dir, in
// append order across segments. Torn or malformed lines are skipped.
func ReadLog(dir string) ([]Record, error) {
	var out []Record
	for _, idx := range listSegments(dir) {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf(segPattern, idx)))
		if err != nil {
			return out, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			var rec Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err == nil {
				out = append(out, rec)
			}
		}
		f.Close()
	}
	return out, nil
}
