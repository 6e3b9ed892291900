package campaign

// Fault-sweep scenario tests: grid shape, parallel-vs-sequential
// bit-identity of fault-injected campaigns, and the resilience report.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/fault"
)

// miniFaultParams builds a small fault-sweep: one seed, one rate.
func miniFaultParams() Params {
	return Params{Seed: 11, Seeds: 1, Fault: fault.Spec{TaskFailProb: 0.3}}
}

func TestFaultSweepScenarioShape(t *testing.T) {
	campaigns, err := Build("fault-sweep", miniFaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline + 1 rate × 4 recovery policies.
	want := 1 + len(fault.Names())
	if len(campaigns) != want {
		t.Fatalf("%d campaigns, want %d", len(campaigns), want)
	}
	if campaigns[0].Config.Fault.Enabled() {
		t.Fatal("baseline campaign has faults enabled")
	}
	seen := make(map[string]bool)
	for _, c := range campaigns[1:] {
		if c.Config.Fault.TaskFailProb != 0.3 {
			t.Fatalf("campaign %s rate %v", c.Name, c.Config.Fault.TaskFailProb)
		}
		seen[c.Config.Recovery] = true
	}
	for _, rec := range fault.Names() {
		if !seen[rec] {
			t.Fatalf("recovery %q missing from the sweep", rec)
		}
	}
	// Default grid: 3 rates × 4 policies + baseline, per seed.
	campaigns, err = Build("fault-sweep", Params{Seed: 1, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (1 + 3*len(fault.Names())); len(campaigns) != want {
		t.Fatalf("default grid built %d campaigns, want %d", len(campaigns), want)
	}
}

// renderFaultOutcome fingerprints a fault-injected campaign's observable
// result, including the resilience statistics.
func renderFaultOutcome(o Outcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s err=%v", o.Name, o.Err)
	if r := o.Result; r != nil {
		fmt.Fprintf(&sb, " makespan=%d tasks=%d goodput=%.17g", int64(r.Makespan), r.TaskCount, r.Goodput())
		if r.Faults != nil {
			fmt.Fprintf(&sb, " faults=%+v", *r.Faults)
		}
		for _, tr := range r.TaskRecords {
			fmt.Fprintf(&sb, "\n  %s %d %d %d %s a%d %s", tr.ID, int64(tr.Submitted),
				int64(tr.SetupAt), int64(tr.EndedAt), tr.State, tr.Attempt, tr.Fault)
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// TestFaultSweepParallelMatchesSequential: the whole mini fault sweep is
// bit-identical on one worker and on many — fault-injected campaigns
// stay hermetic. CI runs this under -race.
func TestFaultSweepParallelMatchesSequential(t *testing.T) {
	p := miniFaultParams()
	p.Fault.NodeMTBF = 8 * time.Hour
	build := func() []Campaign {
		campaigns, err := Build("fault-sweep", p)
		if err != nil {
			t.Fatal(err)
		}
		return campaigns
	}
	render := func(outs []Outcome) string {
		var sb strings.Builder
		for _, o := range outs {
			if o.Err != nil {
				t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
			}
			sb.WriteString(renderFaultOutcome(o))
		}
		return sb.String()
	}
	seq := render(Run(build(), 1))
	par := render(Run(build(), 4))
	if seq != par {
		t.Fatal("fault sweep diverges between 1 and 4 workers")
	}
}

// TestResilienceReportOverSweep: the scenario's report renders one row
// per (recovery, rate) cell with baselines feeding inflation, and the
// CSV carries every campaign.
func TestResilienceReportOverSweep(t *testing.T) {
	sc, ok := Lookup("fault-sweep")
	if !ok {
		t.Fatal("fault-sweep not registered")
	}
	campaigns, err := Build("fault-sweep", miniFaultParams())
	if err != nil {
		t.Fatal(err)
	}
	outs := Run(campaigns, 0)
	var results []*core.Result
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
		}
		results = append(results, o.Result)
	}
	text := sc.Report(results)
	for _, rec := range fault.Names() {
		if !strings.Contains(text, rec) {
			t.Fatalf("report missing recovery %q:\n%s", rec, text)
		}
	}
	if strings.Contains(text, "inflation unavailable") {
		t.Fatalf("baseline not recognized:\n%s", text)
	}
	var csv strings.Builder
	if err := sc.ReportCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(results) {
		t.Fatalf("CSV has %d lines for %d results", len(lines), len(results))
	}
	if !strings.HasPrefix(lines[1], "baseline,") {
		t.Fatalf("baseline row missing: %q", lines[1])
	}
}

// TestScenarioFaultParams: Fault/Recovery params thread into ordinary
// scenarios too — a faulty pair run completes with stats attached.
func TestScenarioFaultParams(t *testing.T) {
	campaigns, err := Build("pair", Params{Seed: 42, Fault: fault.Spec{TaskFailProb: 0.25}, Recovery: "retry"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range campaigns {
		if c.Config.Fault.TaskFailProb != 0.25 || c.Config.Recovery != "retry" {
			t.Fatalf("campaign %s missing fault params", c.Name)
		}
	}
	outs := Run(campaigns, 2)
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("campaign %s failed: %v", o.Name, o.Err)
		}
		if o.Result.Faults == nil {
			t.Fatalf("campaign %s has no fault stats", o.Name)
		}
	}
	// Invalid specs and unknown policies are rejected at build time.
	if _, err := Build("pair", Params{Fault: fault.Spec{TaskFailProb: 2}}); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
	if _, err := Build("pair", Params{Recovery: "magic"}); err == nil {
		t.Fatal("unknown recovery accepted")
	}
}
