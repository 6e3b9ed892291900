package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"impress/internal/campaign"
)

// traced makes one traced execution at the reduced sizes.
func traced(t *testing.T, b bench, seed uint64) rep {
	t.Helper()
	r, err := executeRep(b, seed, smallSizes, newTracer(b.name))
	if err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("%s: failed campaigns: %v", b.name, r.Errors)
	}
	return r
}

func mustBench(t *testing.T, name string) bench {
	t.Helper()
	b, ok := lookupBench(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return b
}

// One screen campaign over distinct targets computes every payload input
// once: the bypass case of payload memoization must count a redundancy
// of exactly 1.
func TestScreenHasNoRepeatedPayloads(t *testing.T) {
	pl, err := scenarioPlan("screen", campaign.Params{Seed: 42, Targets: 3})
	if err != nil {
		t.Fatal(err)
	}
	outs := campaign.NewEngine(engineWorkers).Run(pl.campaigns)
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	c := countStage(results(outs), "mpnn")
	if c.calls == 0 || c.calls != c.distinct {
		t.Fatalf("screen: %d mpnn calls over %d distinct inputs, want equal and non-zero", c.calls, c.distinct)
	}
}

func TestTenantServiceRepeatsPayloads(t *testing.T) {
	r := traced(t, mustBench(t, "tenant-service"), 42)
	if got := r.Layers["mpnn.redundancy"]; got <= 1 {
		t.Fatalf("mpnn.redundancy = %v on tenant-service, want > 1", got)
	}
}

// TestCountsAndOutputsRepeat runs every workload twice, traced and
// untraced: the exact counts and the output digest must not change.
func TestCountsAndOutputsRepeat(t *testing.T) {
	for _, b := range benches {
		t.Run(b.name, func(t *testing.T) {
			first := traced(t, b, 42)
			second := traced(t, b, 42)
			for _, name := range []string{"mpnn.calls", "mpnn.distinct", "fold.calls", "fold.distinct", "pilot.tasks"} {
				if first.Layers[name] != second.Layers[name] {
					t.Errorf("%s: %v then %v", name, first.Layers[name], second.Layers[name])
				}
			}
			if first.Layers["mpnn.calls"] == 0 || first.Layers["pilot.tasks"] == 0 {
				t.Errorf("no payload calls or tasks counted: %v", first.Layers)
			}
			untraced, err := executeRep(b, 42, smallSizes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if first.Digest != second.Digest || first.Digest != untraced.Digest {
				t.Errorf("digests differ: traced %s, traced %s, untraced %s", first.Digest, second.Digest, untraced.Digest)
			}
		})
	}
}

// fingerprint reduces a plan to the inputs the program receives.
func fingerprint(t *testing.T, pl *plan) []any {
	t.Helper()
	var fp []any
	for _, c := range pl.campaigns {
		fp = append(fp, c.Name, c.Seed, c.Config.Seed, len(c.Targets))
		if c.Tenancy != nil {
			for _, ts := range c.Tenancy.Tenants {
				fp = append(fp, ts.Name, ts.Seed, ts.TargetCount, ts.Nodes, ts.Weight)
			}
		}
	}
	for _, tg := range pl.targets {
		fp = append(fp, tg.Name, tg.Seed, tg.Structure.FullSequence().String(), tg.Truth.Fields)
	}
	return fp
}

func TestWorkloadConstructionIsSeedDeterministic(t *testing.T) {
	for _, b := range benches {
		t.Run(b.name, func(t *testing.T) {
			build := func(seed uint64) []any {
				pl, err := b.setup(seed, smallSizes)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(t, pl)
			}
			a, again, other := build(42), build(42), build(43)
			if !reflect.DeepEqual(a, again) {
				t.Fatal("two set-ups at seed 42 built different inputs")
			}
			if reflect.DeepEqual(a, other) {
				t.Fatal("seeds 42 and 43 built identical inputs")
			}
		})
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, b := range benches {
		want = append(want, b.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
