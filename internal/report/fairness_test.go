package report

import (
	"math"
	"strings"
	"testing"
	"time"

	"impress/internal/core"
)

// fairnessResult fabricates a multi-tenant service result with the given
// per-tenant slowdowns.
func fairnessResult(admission string, seed uint64, makespan time.Duration, slowdowns ...float64) *core.Result {
	r := &core.Result{
		Approach:  "TENANTS",
		Seed:      seed,
		Admission: admission,
		Makespan:  makespan,
	}
	for i, sd := range slowdowns {
		runtime := 10 * time.Hour
		wait := time.Duration(float64(runtime) * (sd - 1))
		r.Tenants = append(r.Tenants, core.TenantStat{
			Name:     string(rune('a' + i)),
			Weight:   1,
			Nodes:    2,
			Arrived:  0,
			Admitted: wait,
			Finished: wait + runtime,
			Wait:     wait,
			Runtime:  runtime,
			Slowdown: sd,
		})
	}
	return r
}

func TestJainOfSingleTenantIsOne(t *testing.T) {
	if j := JainOf(fairnessResult("fcfs-admit", 1, 10*time.Hour, 3.7)); j != 1 {
		t.Fatalf("single-tenant Jain = %v, want 1", j)
	}
	if j := JainOf(fairnessResult("fcfs-admit", 1, 10*time.Hour, 2, 2, 2, 2)); j != 1 {
		t.Fatalf("equal slowdowns Jain = %v, want 1", j)
	}
}

func TestFairnessReportRanksPolicies(t *testing.T) {
	results := []*core.Result{
		// fcfs: wildly uneven slowdowns (late tenants starved).
		fairnessResult("fcfs-admit", 1, 40*time.Hour, 1, 1, 5, 9),
		// weighted-fair: everyone stretched evenly.
		fairnessResult("weighted-fair", 1, 38*time.Hour, 2, 2, 2, 2),
		// A plain campaign without tenants must be skipped, not crash.
		{Approach: "IM-RP", Seed: 1, Makespan: 20 * time.Hour},
	}
	text := Fairness.Table(results)
	if !strings.Contains(text, "fcfs-admit") || !strings.Contains(text, "weighted-fair") {
		t.Fatalf("report lacks policy rows:\n%s", text)
	}
	if !strings.Contains(text, "1.000") {
		t.Fatalf("report lacks weighted-fair's perfect Jain:\n%s", text)
	}
	// fcfs Jain = (1+1+5+9)² / (4·(1+1+25+81)) = 256/432.
	wantJain := 256.0 / 432.0
	if !strings.Contains(text, "0.593") {
		t.Fatalf("report lacks fcfs Jain %.3f:\n%s", wantJain, text)
	}
	if math.Abs(256.0/432.0-wantJain) > 1e-12 {
		t.Fatal("fixture arithmetic drifted")
	}
	// Slowdown max column carries the starved tenant.
	if !strings.Contains(text, "9.00") {
		t.Fatalf("report lacks the max slowdown:\n%s", text)
	}
}

func TestFairnessCSVRows(t *testing.T) {
	results := []*core.Result{
		fairnessResult("quota", 7, 30*time.Hour, 1, 3),
		{Approach: "IM-RP", Seed: 7}, // skipped
	}
	var sb strings.Builder
	if err := FairnessCSV(&sb, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 tenant rows:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "admission,seed,jain,tenant,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "quota,7,0.8") {
			t.Fatalf("row lacks policy/seed/jain prefix: %s", line)
		}
	}
	// Jain over slowdowns {1,3} = 16/20 = 0.8 on both rows.
	if !strings.Contains(lines[1], ",0.8000,") {
		t.Fatalf("row lacks the service Jain: %s", lines[1])
	}
}
