package report

import (
	"strings"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/trace"
)

// fakeFaulty builds a synthetic fault-injected result.
func fakeFaulty(seed uint64, recovery string, rate float64, makespan time.Duration) *core.Result {
	return &core.Result{
		Approach: "IM-RP",
		Seed:     seed,
		Makespan: makespan,
		Faults: &core.FaultStats{
			Spec:              fault.Spec{TaskFailProb: rate},
			Recovery:          recovery,
			TaskFaults:        4,
			Resubmissions:     3,
			TerminalFailures:  1,
			KilledPipelines:   1,
			AttemptsHistogram: map[int]int{1: 10, 2: 3},
			WastedCoreHours:   2.5,
		},
		TaskRecords: []trace.TaskRecord{
			{ID: "task.1", State: "DONE", Placed: true, SetupAt: 0, EndedAt: 3600e9, Cores: 4},
			{ID: "task.2", State: "FAILED", Placed: true, SetupAt: 0, EndedAt: 1800e9, Cores: 4},
		},
	}
}

func fakeBaseline(seed uint64, makespan time.Duration) *core.Result {
	return &core.Result{Approach: "IM-RP", Seed: seed, Makespan: makespan}
}

func TestResilienceTable(t *testing.T) {
	results := []*core.Result{
		fakeBaseline(1, 10*time.Hour),
		fakeFaulty(1, "retry", 0.15, 12*time.Hour),
		fakeFaulty(1, "none", 0.15, 11*time.Hour),
	}
	text := Resilience.Table(results)
	for _, want := range []string{"retry", "none", "0.15", "1×10 2×3", "1.20"} {
		if !strings.Contains(text, want) {
			t.Fatalf("resilience table missing %q:\n%s", want, text)
		}
	}
	// Goodput of the synthetic records: 4 useful vs 2 wasted core-hours.
	if !strings.Contains(text, "66.7") {
		t.Fatalf("goodput not rendered:\n%s", text)
	}
	// Without baselines, inflation degrades gracefully.
	noBase := Resilience.Table(results[1:])
	if !strings.Contains(noBase, "n/a") || !strings.Contains(noBase, "inflation unavailable") {
		t.Fatalf("missing-baseline handling wrong:\n%s", noBase)
	}
	// Nil results are skipped.
	if got := Resilience.Table([]*core.Result{nil}); !strings.Contains(got, "Recovery") {
		t.Fatalf("nil result broke the table:\n%s", got)
	}
}

func TestResilienceCSV(t *testing.T) {
	var sb strings.Builder
	err := Resilience.CSV(&sb, []*core.Result{
		fakeBaseline(1, 10*time.Hour),
		fakeFaulty(1, "backoff", 0.05, 15*time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "baseline,0,1,IM-RP,") {
		t.Fatalf("baseline row %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "backoff,0.0500,1,IM-RP,") {
		t.Fatalf("fault row %q", lines[2])
	}
	if !strings.Contains(lines[2], "1.5000") { // 15h / 10h inflation
		t.Fatalf("inflation missing from %q", lines[2])
	}
}
