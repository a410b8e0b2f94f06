// Command policylint parses and validates WS-Policy4MASC documents:
//
//	policylint policies/*.xml
//
// For each file it reports parse errors, consistency violations (the
// checks the paper claims over RobustBPEL: layer coverage, action
// ordering, trigger/kind coherence), and on success a summary of the
// policies the document defines. A condition that references a
// variable its evaluation site never binds fails the file. It also
// warns — without failing — on two classes of dead policy: adaptation
// policies whose OnEvent type no middleware component ever publishes
// (the policy can never fire), and messaging-layer adaptation policies
// shadowed by an ungated, Skip-ending higher-priority sibling with the
// same (or broader) scope and trigger, which always handles the fault
// before the bus's recovery reaches them. Exit status is non-zero if
// any file fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: policylint <file.xml>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	failed := 0
	for _, path := range flag.Args() {
		warnings, err := lint(path)
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "policylint: %s: warning: %s\n", path, w)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "policylint: %s: %v\n", path, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// lint runs the shared compiler front-end (compile.CheckDocument) over
// one file: validation failures become the returned error, lint
// findings become the warning strings — the same diagnostics the
// policy-management API returns for a rejected PUT.
func lint(path string) (warnings []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	doc, err := policy.Parse(f)
	if err != nil {
		return nil, err
	}
	for _, d := range compile.CheckDocument(doc) {
		if d.Severity == compile.SeverityError {
			return nil, errors.New(d.Message)
		}
		warnings = append(warnings, d.Message)
	}
	fmt.Printf("%s: document %q OK — %d monitoring, %d adaptation, %d protection\n",
		path, doc.Name, len(doc.Monitoring), len(doc.Adaptation), len(doc.Protection))
	for _, mp := range doc.Monitoring {
		fmt.Printf("  monitoring %-28s subject=%q operation=%q pre=%d post=%d thresholds=%d\n",
			mp.Name, mp.Subject, mp.Operation,
			len(mp.PreConditions), len(mp.PostConditions), len(mp.Thresholds))
	}
	for _, ap := range doc.Adaptation {
		fmt.Printf("  adaptation %-28s subject=%q kind=%s layer=%s priority=%d trigger=%s actions=%d\n",
			ap.Name, ap.Subject, ap.Kind, ap.Layer, ap.Priority, ap.Trigger.EventType, len(ap.Actions))
	}
	for _, pp := range doc.Protection {
		fmt.Printf("  protection %-28s subject=%q admission=%v breaker=%v hedge=%v\n",
			pp.Name, pp.Subject, pp.Admission != nil, pp.Breaker != nil, pp.Hedge != nil)
	}
	return warnings, nil
}
