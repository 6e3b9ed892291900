package report

import (
	"strings"
	"testing"
	"time"

	"impress/internal/core"
	"impress/internal/landscape"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// fakePolicyResult builds a minimal result for report-shape tests: one
// DONE task whose queue wait is `wait`.
func fakePolicyResult(policy string, makespan, wait time.Duration) *core.Result {
	setup := simclock.Time(wait)
	return &core.Result{
		Approach:       "IM-RP",
		Policies:       []string{policy},
		Makespan:       makespan,
		CPUUtilization: 0.75,
		GPUUtilization: 0.30,
		Starting:       map[string]landscape.Metrics{"t": {PLDDT: 70}},
		FinalBest:      map[string]landscape.Metrics{"t": {PLDDT: 76}},
		TaskRecords: []trace.TaskRecord{
			{ID: "task.1", Submitted: 0, SetupAt: setup, RunAt: setup.Add(time.Minute), EndedAt: setup.Add(time.Hour), State: "DONE", Placed: true},
		},
	}
}

func TestPolicyCompareRendering(t *testing.T) {
	rs := []*core.Result{
		fakePolicyResult("fifo", 12*time.Hour, 40*time.Minute),
		fakePolicyResult("fifo", 13*time.Hour, 50*time.Minute),
		fakePolicyResult("bestfit", 10*time.Hour, 10*time.Minute),
	}
	text := PolicyCompare.Table(rs)
	for _, want := range []string{"Policy", "Makespan", "Queue wait", "fifo", "bestfit", "+6.00"} {
		if !strings.Contains(text, want) {
			t.Fatalf("PolicyCompare output missing %q:\n%s", want, text)
		}
	}
	var sb strings.Builder
	if err := PolicyCompare.CSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.HasPrefix(csv, "policy,approach,") {
		t.Fatalf("CSV header wrong: %q", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 {
		t.Fatalf("CSV rows = %d, want 4 (header + 3 campaigns)", got)
	}
}

func TestQueueWaitStats(t *testing.T) {
	r := fakePolicyResult("fifo", 12*time.Hour, 40*time.Minute)
	// A task that never left the queue must not count toward waits.
	r.TaskRecords = append(r.TaskRecords, trace.TaskRecord{
		ID: "task.2", Submitted: 0, SetupAt: 0, RunAt: 0, EndedAt: simclock.Time(time.Hour), State: "CANCELED",
	})
	mean, max := r.QueueWait()
	if mean != 40*time.Minute || max != 40*time.Minute {
		t.Fatalf("QueueWait = %v, %v; want 40m, 40m", mean, max)
	}
}
