package campaign

// Chaos-sweep scenario tests: grid shape, determinism of steered
// campaigns under the full correlated-failure mix (satellite of the
// crash-chain migration work), and the chaos report over a mini sweep.

import (
	"fmt"
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/steer"
	"impress/internal/workload"
)

// chaosCampaign hand-builds one cell of the chaos grid — the labeled
// default fleet under the full failure mix, pinned to one (recovery,
// steering) pair — small enough to run repeatedly.
func chaosCampaign(t *testing.T, recovery, steerName string) Campaign {
	t.Helper()
	tg, err := workload.MinedScreen(9, 3, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AdaptiveConfig(9)
	pilots, err := FleetPilots(chaosFleetSpec, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pilots = pilots
	cfg.Fault = chaosFaultSpec()
	cfg.Recovery = recovery
	cfg.Steer = steerName
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 5
	cfg.Pipeline.MPNN.Sweeps = 2
	return Campaign{Name: "chaos-mini/" + recovery + "+" + steerName, Seed: 9, Targets: tg, Config: cfg}
}

func TestChaosSweepScenarioShape(t *testing.T) {
	cs, err := Build("chaos-sweep", Params{Seed: 3, Seeds: 2, Targets: 2})
	if err != nil {
		t.Fatal(err)
	}
	perSeed := 1 + len(fault.Names())*len(steer.Names())
	if len(cs) != 2*perSeed {
		t.Fatalf("built %d campaigns, want %d", len(cs), 2*perSeed)
	}
	for s := 0; s < 2; s++ {
		seed := uint64(3 + s)
		block := cs[s*perSeed : (s+1)*perSeed]
		base := block[0]
		if want := fmt.Sprintf("chaos/baseline/seed%d", seed); base.Name != want {
			t.Fatalf("block %d leads with %q, want %q", s, base.Name, want)
		}
		if base.Config.Fault.Enabled() || base.Config.Steer != "none" || base.Config.Recovery != "" {
			t.Fatalf("baseline %q is not the fault-free frozen split", base.Name)
		}
		i := 1
		for _, rec := range fault.Names() {
			for _, st := range steer.Names() {
				c := block[i]
				i++
				if want := fmt.Sprintf("chaos/%s+%s/seed%d", rec, st, seed); c.Name != want {
					t.Fatalf("cell named %q, want %q", c.Name, want)
				}
				if c.Config.Recovery != rec || c.Config.Steer != st {
					t.Fatalf("cell %q carries (%q, %q)", c.Name, c.Config.Recovery, c.Config.Steer)
				}
				if !c.Config.Fault.Domains.Enabled() {
					t.Fatalf("cell %q has no domain failure models", c.Name)
				}
				if len(c.Config.Pilots) != 2 {
					t.Fatalf("cell %q has %d pilots, want the fleet split pair", c.Name, len(c.Config.Pilots))
				}
				for _, ps := range c.Config.Pilots {
					labeled := 0
					for _, nc := range ps.Nodes {
						if nc.Domain != "" {
							labeled++
						}
					}
					if labeled != len(ps.Nodes) {
						t.Fatalf("pilot %q has %d/%d labeled nodes; the default fleet labels all", ps.Name, labeled, len(ps.Nodes))
					}
				}
			}
		}
	}
}

// TestChaosCampaignDeterminism: a steered campaign with every failure
// model on — per-node chains, outages, cascades, maintenance, plus
// chain migration on each transfer — run twice, is byte-identical
// including the fault statistics. CI runs this under -race.
func TestChaosCampaignDeterminism(t *testing.T) {
	runIt := func() string {
		out := Run([]Campaign{chaosCampaign(t, "elsewhere", "greedy")}, 1)[0]
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Result.Faults == nil {
			t.Fatal("chaos campaign carries no fault stats")
		}
		return renderFaultOutcome(out)
	}
	if a, b := runIt(), runIt(); a != b {
		t.Fatal("chaos campaign diverges between identical runs")
	}
}

// TestChaosReportOverSweep: the chaos report renders one row per
// (recovery, steering) cell with the fault-free baseline feeding
// inflation, and the CSV carries every campaign.
func TestChaosReportOverSweep(t *testing.T) {
	sc, ok := Lookup("chaos-sweep")
	if !ok {
		t.Fatal("chaos-sweep not registered")
	}
	baseline := chaosCampaign(t, "", "none")
	baseline.Config.Fault = fault.Spec{}
	baseline.Config.Recovery = ""
	campaigns := []Campaign{
		baseline,
		chaosCampaign(t, "retry", "none"),
		chaosCampaign(t, "elsewhere", "greedy"),
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
	for _, want := range []string{"Chaos comparison", "retry", "elsewhere", "greedy", "Outages", "Maint"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
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
