package report

import (
	"strings"
	"testing"
	"time"

	"impress/internal/core"
)

// elasticResult fabricates a minimal campaign result for report tests.
func elasticResult(steer string, seed uint64, makespan time.Duration, transfers int) *core.Result {
	return &core.Result{
		Approach:      "IM-RP",
		Seed:          seed,
		Steer:         steer,
		Steerings:     []string{steer, steer},
		NodeTransfers: transfers,
		Makespan:      makespan,
	}
}

func TestElasticReportSpeedup(t *testing.T) {
	results := []*core.Result{
		elasticResult("none", 1, 20*time.Hour, 0),
		elasticResult("greedy", 1, 10*time.Hour, 4),
		elasticResult("none", 2, 30*time.Hour, 0),
		elasticResult("greedy", 2, 15*time.Hour, 6),
	}
	text := Elastic.Table(results)
	// Both seeds give greedy exactly 2× over its frozen baseline, and
	// the transfer column sums.
	if !strings.Contains(text, "2.000") {
		t.Fatalf("report lacks the 2x speedup:\n%s", text)
	}
	if !strings.Contains(text, "10") {
		t.Fatalf("report lacks the summed transfer count:\n%s", text)
	}
	// The frozen split reports speedup 1 against itself.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "none") && !strings.Contains(line, "1.000") {
			t.Fatalf("frozen row lacks unit speedup: %s", line)
		}
	}
}

func TestElasticReportWithoutBaseline(t *testing.T) {
	results := []*core.Result{elasticResult("greedy", 1, 10*time.Hour, 2)}
	text := Elastic.Table(results)
	if !strings.Contains(text, "n/a") || !strings.Contains(text, "speedup unavailable") {
		t.Fatalf("baseline-free report should mark speedup unavailable:\n%s", text)
	}
}

func TestElasticCSVRows(t *testing.T) {
	results := []*core.Result{
		elasticResult("none", 1, 20*time.Hour, 0),
		elasticResult("hysteresis", 1, 16*time.Hour, 3),
	}
	var sb strings.Builder
	if err := Elastic.CSV(&sb, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "steer,seed,approach,makespan_h,speedup") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[2], "hysteresis,1,IM-RP,16.0000,1.2500") {
		t.Fatalf("hysteresis row wrong: %s", lines[2])
	}
}
