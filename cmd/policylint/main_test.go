package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintValidDocument(t *testing.T) {
	path := write(t, "ok.xml", `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ok">
  <MonitoringPolicy name="m" subject="vep:S">
    <PreCondition name="p">//x != ''</PreCondition>
  </MonitoringPolicy>
  <AdaptationPolicy name="a" subject="vep:S" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	warnings, err := lint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
}

func TestLintParseError(t *testing.T) {
	path := write(t, "bad.xml", "not xml")
	if _, err := lint(path); err == nil {
		t.Fatal("parse error not reported")
	}
}

func TestLintConsistencyError(t *testing.T) {
	path := write(t, "inconsistent.xml", `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bad">
  <AdaptationPolicy name="a" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	if _, err := lint(path); err == nil {
		t.Fatal("consistency violation not reported")
	}
}

func TestLintWarnsOnDeadTrigger(t *testing.T) {
	// adaptation.requested is declared in the event vocabulary but no
	// middleware component publishes it, so this policy can never fire.
	path := write(t, "dead.xml", `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="dead">
  <AdaptationPolicy name="never-fires" subject="vep:S" priority="1">
    <OnEvent type="adaptation.requested"/>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="fires" subject="vep:S" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	warnings, err := lint(path)
	if err != nil {
		t.Fatalf("dead trigger must warn, not fail: %v", err)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly one", warnings)
	}
	if !strings.Contains(warnings[0], "never-fires") ||
		!strings.Contains(warnings[0], "adaptation.requested") {
		t.Fatalf("warning does not name the policy and type: %q", warnings[0])
	}
}

func TestLintWarnsOnShadowedPolicy(t *testing.T) {
	// catch-all has higher priority, the same scope and trigger, no
	// gates, and ends in a Skip that always handles the fault, so the
	// bus's recovery never reaches specific.
	path := write(t, "shadowed.xml", `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="shadowed">
  <AdaptationPolicy name="catch-all" subject="vep:S" priority="20">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="1"/><Skip/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="specific" subject="vep:S" priority="10">
    <OnEvent type="fault.detected" faultType="wsbus:Timeout"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	warnings, err := lint(path)
	if err != nil {
		t.Fatalf("shadowed policy must warn, not fail: %v", err)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly one", warnings)
	}
	if !strings.Contains(warnings[0], `"specific" is shadowed by "catch-all"`) {
		t.Fatalf("warning does not name both policies: %q", warnings[0])
	}
}

func TestLintShadowLintExemptions(t *testing.T) {
	for name, doc := range map[string]string{
		// A winner gated by a condition does not shadow: when the
		// condition is false, evaluation falls through to the sibling.
		"guarded winner": `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ok">
  <AdaptationPolicy name="gated" subject="vep:S" priority="20">
    <OnEvent type="fault.detected"/>
    <Condition>$faultType = 'wsbus:Timeout'</Condition>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="fallback" subject="vep:S" priority="10">
    <OnEvent type="fault.detected"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`,
		// A winner whose actions can fail does not shadow: when its
		// Retry fails, recovery falls through to the sibling.
		"fallible winner": `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ok">
  <AdaptationPolicy name="catch-all" subject="vep:S" priority="20">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="specific" subject="vep:S" priority="10">
    <OnEvent type="fault.detected" faultType="wsbus:Timeout"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`,
		// A winner with a narrower fault trigger leaves other faults to
		// the sibling.
		"narrower winner": `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ok">
  <AdaptationPolicy name="timeouts-only" subject="vep:S" priority="20">
    <OnEvent type="fault.detected" faultType="wsbus:Timeout"/>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="everything-else" subject="vep:S" priority="10">
    <OnEvent type="fault.detected"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`,
		// Process-layer policies are all dispatched by the decision
		// maker, so priority order cannot starve them.
		"process layer": `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ok">
  <AdaptationPolicy name="first" subject="OrderingProcess" priority="20" layer="process">
    <OnEvent type="fault.detected"/>
    <Actions><SuspendProcess/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="second" subject="OrderingProcess" priority="10" layer="process">
    <OnEvent type="fault.detected"/>
    <Actions><SuspendProcess/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`,
	} {
		path := write(t, "exempt.xml", doc)
		warnings, err := lint(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(warnings) != 0 {
			t.Fatalf("%s: unexpected warnings: %v", name, warnings)
		}
	}
}

func TestLintRejectsUnboundVariable(t *testing.T) {
	// $nosuch is bound at no evaluation site, so the condition could
	// only ever fail to evaluate; $target is one of the six every
	// adaptation site binds.
	path := write(t, "unbound.xml", `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="unbound">
  <AdaptationPolicy name="typo" subject="vep:S" priority="1">
    <OnEvent type="fault.detected"/>
    <Condition>$target != '' and $nosuch = 'x'</Condition>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	_, err := lint(path)
	if err == nil {
		t.Fatal("unbound variable accepted")
	}
	if !strings.Contains(err.Error(), "references $nosuch") || strings.Contains(err.Error(), "references $target") {
		t.Fatalf("diagnostic does not name the unbound variable alone: %v", err)
	}
}

func TestLintMissingFile(t *testing.T) {
	if _, err := lint(filepath.Join(t.TempDir(), "ghost.xml")); err == nil {
		t.Fatal("missing file not reported")
	}
}

func TestLintShippedPolicies(t *testing.T) {
	// The sample documents in policies/ must stay valid and warning-free.
	for _, doc := range []string{
		"../../policies/scm-recovery.xml",
		"../../policies/overload-protection.xml",
	} {
		warnings, err := lint(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(warnings) != 0 {
			t.Fatalf("%s produces warnings: %v", doc, warnings)
		}
	}
}
