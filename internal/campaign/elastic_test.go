package campaign

// Elastic steering at the campaign level: scenario shape, the inertness
// of steer=none, determinism of steered campaigns, capacity conservation
// across the pilot pair, and the headline claim — at least one steering
// policy beats the frozen split's makespan on at least one seed of the
// default grid.

import (
	"fmt"
	"strings"
	"testing"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/report"
	"impress/internal/steer"
	"impress/internal/workload"
)

// elasticCampaign builds a small split-pilot campaign on a multi-node
// machine, pinned to one steering policy — enough queue pressure for
// transfers to fire, small enough to run repeatedly.
func elasticCampaign(t *testing.T, steerName string, targets int) Campaign {
	t.Helper()
	tg, err := workload.MinedScreen(7, targets, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AdaptiveConfig(7)
	cfg.Machine = cluster.AmarelCluster(elasticNodes)
	pilots, err := core.SplitPilots(cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pilots = pilots
	cfg.Steer = steerName
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 5
	cfg.Pipeline.MPNN.Sweeps = 2
	return Campaign{Name: "elastic-mini/" + steerName, Seed: 7, Targets: tg, Config: cfg}
}

func TestElasticScreenScenarioShape(t *testing.T) {
	cs, err := Build("elastic-screen", Params{Seed: 5, Seeds: 2, Targets: 4})
	if err != nil {
		t.Fatal(err)
	}
	perSeed := len(steer.Names())
	if len(cs) != 2*perSeed {
		t.Fatalf("built %d campaigns, want %d", len(cs), 2*perSeed)
	}
	for i, c := range cs {
		seed := uint64(5 + i/perSeed)
		st := steer.Names()[i%perSeed]
		want := fmt.Sprintf("elastic/%s/seed%d", st, seed)
		if c.Name != want {
			t.Fatalf("campaign %d named %q, want %q", i, c.Name, want)
		}
		if c.Config.Steer != st {
			t.Fatalf("campaign %q has Steer %q", c.Name, c.Config.Steer)
		}
		if len(c.Config.Pilots) != 2 {
			t.Fatalf("campaign %q has %d pilots, want the split pair", c.Name, len(c.Config.Pilots))
		}
		for _, ps := range c.Config.Pilots {
			if ps.Machine.Nodes != elasticNodes {
				t.Fatalf("pilot %q has %d nodes, want %d", ps.Name, ps.Machine.Nodes, elasticNodes)
			}
		}
	}
}

// TestSteerNoneIsInert proves the frozen split really is frozen: an
// explicit Steer "none" renders byte-identical to a config with the
// steering subsystem untouched, on the same split-pilot machine.
func TestSteerNoneIsInert(t *testing.T) {
	run := func(steerName string) string {
		out := Run([]Campaign{elasticCampaign(t, steerName, 3)}, 1)[0]
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Result.NodeTransfers != 0 {
			t.Fatalf("steer=%q moved %d nodes", steerName, out.Result.NodeTransfers)
		}
		return renderResult(out.Result)
	}
	if run("") != run("none") {
		t.Fatal("steer=none diverged from the pre-steering configuration")
	}
}

// TestSteeredCampaignDeterminism: a steering campaign run twice is
// byte-identical, transfers included — CI runs this under -race.
func TestSteeredCampaignDeterminism(t *testing.T) {
	for _, st := range []string{"greedy", "hysteresis"} {
		st := st
		t.Run(st, func(t *testing.T) {
			run := func() (string, int) {
				out := Run([]Campaign{elasticCampaign(t, st, 3)}, 1)[0]
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if got := out.Result.SteerLabel(); got != st {
					t.Fatalf("SteerLabel %q, want %q", got, st)
				}
				return renderResult(out.Result), out.Result.NodeTransfers
			}
			a, na := run()
			b, nb := run()
			if a != b || na != nb {
				t.Fatalf("steered campaign is not deterministic (%d vs %d transfers)", na, nb)
			}
		})
	}
}

// TestElasticScreenBeatsFrozenSplit pins the tentpole's headline: on the
// default grid's first seed, at least one steering policy finishes the
// screen with a strictly shorter makespan than the frozen split, having
// actually moved nodes. The simulation is deterministic, so this is a
// regression test, not a flaky benchmark.
func TestElasticScreenBeatsFrozenSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("three screen campaigns in -short mode")
	}
	cs, err := Build("elastic-screen", Params{Seed: 42, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs := Run(cs, 0)
	byLabel := make(map[string]*core.Result)
	var results []*core.Result
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s failed: %v", o.Name, o.Err)
		}
		byLabel[o.Result.SteerLabel()] = o.Result
		results = append(results, o.Result)
	}
	frozen := byLabel["none"]
	if frozen == nil {
		t.Fatal("no frozen-split cell in the race")
	}
	won := false
	for _, st := range []string{"greedy", "hysteresis"} {
		r := byLabel[st]
		if r == nil {
			t.Fatalf("no %s cell in the race", st)
		}
		if r.NodeTransfers > 0 && r.Makespan < frozen.Makespan {
			won = true
		}
	}
	if !won {
		t.Fatalf("no steering policy beat the frozen split (none %.2fh, greedy %.2fh/%d moves, hysteresis %.2fh/%d moves)",
			frozen.Makespan.Hours(),
			byLabel["greedy"].Makespan.Hours(), byLabel["greedy"].NodeTransfers,
			byLabel["hysteresis"].Makespan.Hours(), byLabel["hysteresis"].NodeTransfers)
	}

	// The report and its CSV render the race without error and carry the
	// speedup column.
	text := report.Elastic.Table(results)
	for _, want := range []string{"greedy", "hysteresis", "none", "Speedup"} {
		if !strings.Contains(text, want) {
			t.Fatalf("elastic report missing %q:\n%s", want, text)
		}
	}
	var sb strings.Builder
	if err := report.Elastic.CSV(&sb, results); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != len(results)+1 {
		t.Fatalf("elastic CSV has %d lines, want %d", got, len(results)+1)
	}
}

// TestScenarioSteerParam: Params.Steer and Params.Nodes thread into
// ordinary scenarios (a steered pair on a 4-node split), and invalid
// values are rejected.
func TestScenarioSteerParam(t *testing.T) {
	cs, err := Build("pair", Params{Seed: 1, SplitPilots: true, Nodes: 4, Steer: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.Config.Steer != "greedy" {
			t.Fatalf("campaign %q has Steer %q", c.Name, c.Config.Steer)
		}
		for _, ps := range c.Config.Pilots {
			if ps.Machine.Nodes != 4 {
				t.Fatalf("campaign %q pilot %q has %d nodes, want 4 (Params.Nodes)", c.Name, ps.Name, ps.Machine.Nodes)
			}
		}
	}
	if _, err := Build("pair", Params{Steer: "warp"}); err == nil {
		t.Fatal("invalid steering policy accepted")
	}
	// Steering without a multi-pilot placement fails at coordinator
	// construction, not silently mid-campaign.
	single, err := Build("pair", Params{Seed: 1, Steer: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	out := Run(single[:1], 1)[0]
	if out.Err == nil {
		t.Fatal("single-pilot steering accepted")
	}
}
