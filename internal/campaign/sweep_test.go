package campaign

import (
	"strings"
	"testing"
	"time"

	"impress/internal/fault"
	"impress/internal/steer"
)

// TestSweepRejections covers every sweep's build-time parameter check in
// one table: a user-set field a sweep races is an error, while a value
// the race already includes (the frozen "none" steering name) or one that
// narrows an axis (a fixed failure rate, a fixed admission policy) is
// accepted.
func TestSweepRejections(t *testing.T) {
	small := func(p Params) Params {
		p.Seed, p.Targets, p.Tenants = 3, 2, 2
		if p.Seeds == 0 {
			p.Seeds = 1
		}
		return p
	}
	for _, tc := range []struct {
		name, scenario string
		p              Params
		// want is a substring of the build error; empty means accepted.
		want string
	}{
		{"policy-compare/fixed policy", "policy-compare", Params{Policy: "bestfit"}, "Policy"},
		{"fault-sweep/fixed recovery", "fault-sweep", Params{Recovery: "retry"}, "Recovery"},
		{"chaos-sweep/fixed recovery", "chaos-sweep", Params{Recovery: "retry"}, "Recovery"},
		{"chaos-sweep/fixed steering", "chaos-sweep", Params{Steer: "greedy"}, "Steer"},
		{"chaos-sweep/explicit none steering", "chaos-sweep", Params{Steer: "none"}, ""},
		{"elastic-screen/fixed steering", "elastic-screen", Params{Steer: "greedy"}, "Steer"},
		{"elastic-screen/explicit none steering", "elastic-screen", Params{Steer: "none"}, ""},
		{"preempt-sweep/fixed checkpoint interval", "preempt-sweep", Params{CheckpointInterval: 30 * time.Minute}, "CheckpointInterval"},
		{"preempt-sweep/fixed walltime grace", "preempt-sweep", Params{WalltimeGrace: 10 * time.Minute}, "WalltimeGrace"},
		{"preempt-sweep/fixed steering", "preempt-sweep", Params{Steer: "greedy"}, "Steer"},
		{"preempt-sweep/explicit none steering", "preempt-sweep", Params{Steer: "none"}, ""},
		{"tenant-sweep/split pilots", "tenant-sweep", Params{SplitPilots: true}, "split placement"},
		{"tenant-sweep/bad admission", "tenant-sweep", Params{Admission: "slurm"}, "slurm"},
		{"tenant-sweep/bad reclaim", "tenant-sweep", Params{Reclaim: "greedy"}, "greedy"},
		{"tenant-sweep/bad arrival", "tenant-sweep", Params{Arrival: "poisson"}, "poisson"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.scenario, small(tc.p))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}

	// An explicit "none" still races every steering level.
	for scenario, levels := range map[string]int{
		"elastic-screen": len(steer.Names()),
		"chaos-sweep":    1 + len(fault.Names())*len(steer.Names()),
		"preempt-sweep":  1 + 3*2*2,
	} {
		cs, err := Build(scenario, small(Params{Steer: "none"}))
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != levels {
			t.Errorf("%s with Steer none built %d campaigns, want %d", scenario, len(cs), levels)
		}
	}

	// A fixed failure rate narrows fault-sweep to that one rate.
	cs, err := Build("fault-sweep", small(Params{Fault: fault.Spec{TaskFailProb: 0.2}}))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(fault.Names()); len(cs) != want {
		t.Fatalf("fault-sweep at one rate built %d campaigns, want %d", len(cs), want)
	}
	for _, c := range cs[1:] {
		if c.Config.Fault.TaskFailProb != 0.2 {
			t.Fatalf("%s races rate %v, want 0.2", c.Name, c.Config.Fault.TaskFailProb)
		}
	}

	// A fixed admission policy narrows tenant-sweep to one cell per seed.
	cs, err = Build("tenant-sweep", small(Params{Seeds: 2, Admission: "quota"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("tenant-sweep with one admission policy built %d campaigns, want 2", len(cs))
	}
	for _, c := range cs {
		if c.Tenancy.Config.Admission != "quota" {
			t.Fatalf("%s runs admission %q, want quota", c.Name, c.Tenancy.Config.Admission)
		}
	}
}
