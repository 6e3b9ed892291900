package campaign

import (
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/report"
)

// TestTenantSweepBuild checks the scenario grid: one service campaign
// per admission policy per seed, each running the full tenant roster on
// one shared pool.
func TestTenantSweepBuild(t *testing.T) {
	cs, err := Build("tenant-sweep", Params{Seed: 5, Seeds: 2, Targets: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 6 { // 3 admission policies × 2 seeds
		t.Fatalf("got %d campaigns, want 6", len(cs))
	}
	admissions := map[string]bool{}
	for _, c := range cs {
		if c.Tenancy == nil {
			t.Fatalf("%s: not a tenancy campaign", c.Name)
		}
		if len(c.Tenancy.Tenants) != 8 {
			t.Fatalf("%s: %d tenants, want 8", c.Name, len(c.Tenancy.Tenants))
		}
		admissions[c.Tenancy.Config.Admission] = true
	}
	if len(admissions) != 3 {
		t.Fatalf("admission policies raced: %v", admissions)
	}
}

// TestTenantSweepAcceptance pins the PR's acceptance criterion at seed
// 42: eight campaigns arriving on one 12-node shared fleet, where
// weighted-fair admission with fairshare reclaim must beat fcfs-admit on
// Jain's fairness index at equal-or-better aggregate makespan. The probe
// values are documented, not asserted exactly — the assertion is the
// ordering, so the test survives unrelated calibration changes while
// still catching a fairness regression.
func TestTenantSweepAcceptance(t *testing.T) {
	cs, err := Build("tenant-sweep", Params{Seed: 42, Seeds: 1, Targets: 8})
	if err != nil {
		t.Fatal(err)
	}
	outs := Run(cs, 3)
	type cell struct {
		jain     float64
		makespan float64
	}
	cells := map[string]cell{}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Name, o.Err)
		}
		if len(o.Result.Tenants) != 8 {
			t.Fatalf("%s: %d tenants reached the pool, want 8", o.Name, len(o.Result.Tenants))
		}
		cells[o.Result.Admission] = cell{report.JainOf(o.Result), o.Result.Makespan.Hours()}
	}
	fcfs, ok := cells["fcfs-admit"]
	if !ok {
		t.Fatal("no fcfs-admit cell")
	}
	wf, ok := cells["weighted-fair"]
	if !ok {
		t.Fatal("no weighted-fair cell")
	}
	// Probe at HEAD: fcfs jain=0.9728 makespan=18.94h; weighted-fair
	// jain=0.9996 makespan=16.78h (3 reclaims).
	if wf.jain <= fcfs.jain {
		t.Fatalf("weighted-fair Jain %.4f does not beat fcfs-admit %.4f", wf.jain, fcfs.jain)
	}
	if wf.makespan > fcfs.makespan {
		t.Fatalf("weighted-fair makespan %.2fh worse than fcfs-admit %.2fh", wf.makespan, fcfs.makespan)
	}

	// The sweep's own report renders every admission row.
	results := make([]*core.Result, 0, len(outs))
	for _, o := range outs {
		results = append(results, o.Result)
	}
	text := report.Fairness.Table(results)
	for name := range cells {
		if !strings.Contains(text, name) {
			t.Fatalf("fairness report lacks %s:\n%s", name, text)
		}
	}
}
