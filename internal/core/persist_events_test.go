package core

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"impress/internal/cluster"
	"impress/internal/fault"
)

func TestResultJSONRoundTrip(t *testing.T) {
	targets := smallTargets(t, 3, 21)
	res, err := RunAdaptive(targets, fastAdaptive(21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Approach != res.Approach ||
		loaded.TrajectoryCount() != res.TrajectoryCount() ||
		loaded.SubPipelines != res.SubPipelines ||
		loaded.TaskCount != res.TaskCount {
		t.Fatal("scalar fields lost in round trip")
	}
	if loaded.CPUUtilization != res.CPUUtilization || loaded.Makespan != res.Makespan {
		t.Fatal("timeline fields lost")
	}
	// Analysis accessors agree.
	for it := 1; it <= res.Iterations(); it++ {
		am, as := res.IterationSummary(it, PLDDTOf)
		bm, bs := loaded.IterationSummary(it, PLDDTOf)
		if am != bm || as != bs {
			t.Fatalf("iteration %d summary diverged", it)
		}
	}
	if loaded.NetDelta(PTMOf) != res.NetDelta(PTMOf) {
		t.Fatal("net delta diverged")
	}
	// Final designs survive with sequences and coordinates.
	for name, st := range res.FinalDesigns {
		got := loaded.FinalDesigns[name]
		if got == nil {
			t.Fatalf("final design %s lost", name)
		}
		if !got.Receptor.Seq.Equal(st.Receptor.Seq) || got.Generation != st.Generation {
			t.Fatalf("final design %s corrupted", name)
		}
		if len(got.RecXYZ) != len(st.RecXYZ) {
			t.Fatalf("final design %s coordinates lost", name)
		}
	}
	if len(loaded.TaskRecords) != len(res.TaskRecords) {
		t.Fatal("task records lost despite includeTasks")
	}
}

// TestResultJSONRoundTripExecutionRecord pins the execution-layer fields
// — seed, per-pilot policy/recovery/steering labels, node transfers, and
// the full fault accounting — through a write/read cycle. A campaign with
// all three subsystems on exercises every optional field at once.
func TestResultJSONRoundTripExecutionRecord(t *testing.T) {
	targets := smallTargets(t, 3, 27)
	cfg := fastAdaptive(27)
	cfg.Machine = cluster.AmarelCluster(2)
	cfg = splitConfig(t, cfg)
	cfg.Steer = "greedy"
	cfg.Recovery = "retry"
	cfg.Fault = fault.Spec{TaskFailProb: 0.15}
	res, err := RunAdaptive(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The source result must actually carry the record being pinned.
	if res.Seed != 27 || res.Steer != "greedy" || res.Faults == nil {
		t.Fatalf("campaign record incomplete: seed %d steer %q faults %v", res.Seed, res.Steer, res.Faults)
	}
	if len(res.Policies) != 2 || len(res.Recoveries) != 2 || len(res.Steerings) != 2 {
		t.Fatalf("per-pilot labels incomplete: %v %v %v", res.Policies, res.Recoveries, res.Steerings)
	}
	if res.Faults.TaskFaults == 0 {
		t.Fatal("fault injection produced no task faults at rate 0.15")
	}

	// includeTasks keeps the per-attempt records, so derived quantities
	// that walk them (Goodput) survive too.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != res.Seed {
		t.Errorf("seed: %d != %d", loaded.Seed, res.Seed)
	}
	if !reflect.DeepEqual(loaded.Policies, res.Policies) ||
		!reflect.DeepEqual(loaded.Recoveries, res.Recoveries) ||
		!reflect.DeepEqual(loaded.Steerings, res.Steerings) {
		t.Errorf("per-pilot labels lost: %v %v %v", loaded.Policies, loaded.Recoveries, loaded.Steerings)
	}
	if loaded.Steer != res.Steer || loaded.NodeTransfers != res.NodeTransfers {
		t.Errorf("steering record lost: %q/%d != %q/%d",
			loaded.Steer, loaded.NodeTransfers, res.Steer, res.NodeTransfers)
	}
	if loaded.SteerLabel() != res.SteerLabel() ||
		loaded.PolicyLabel() != res.PolicyLabel() ||
		loaded.RecoveryLabel() != res.RecoveryLabel() {
		t.Error("derived labels diverged after round trip")
	}
	if !reflect.DeepEqual(loaded.Faults, res.Faults) {
		t.Errorf("fault stats lost:\n got %+v\nwant %+v", loaded.Faults, res.Faults)
	}
	if loaded.Goodput() != res.Goodput() {
		t.Errorf("goodput diverged: %v != %v", loaded.Goodput(), res.Goodput())
	}
}

func TestResultJSONWithoutTasks(t *testing.T) {
	targets := smallTargets(t, 1, 22)
	res, err := RunControl(targets, fastControl(22))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.TaskRecords) != 0 {
		t.Fatal("task records present despite includeTasks=false")
	}
}

func TestReadResultJSONRejectsBadSchema(t *testing.T) {
	if _, err := ReadResultJSON(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadResultJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	bad := `{"schema":1,"final_designs":{"x":{"name":"PDZ-9","receptor":"AC*D"}}}`
	if _, err := ReadResultJSON(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "PDZ-9") {
		t.Fatalf("bad residue: got %v, want an error naming the structure", err)
	}
}

// schema1Fixture is a schema-1 record written by the encoder that
// predates the JSON tags on Result: a reduced tenant-sweep cell (seed 42,
// 2 tenants, quota admission) without task records, carrying a
// fault-sweep cell's fault accounting so tenants, faults and final
// designs are all present.
const schema1Fixture = "testdata/result_schema1.json"

// TestResultJSONSchema1Fixture pins backward compatibility: an older
// schema-1 file still decodes and re-encodes to the identical bytes.
func TestResultJSONSchema1Fixture(t *testing.T) {
	want, err := os.ReadFile(schema1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReadResultJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) == 0 || res.Faults == nil || len(res.FinalDesigns) == 0 {
		t.Fatalf("fixture decoded without tenants (%d), faults (%v) or final designs (%d)",
			len(res.Tenants), res.Faults != nil, len(res.FinalDesigns))
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("re-encoded fixture differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("re-encoded fixture has %d lines, want %d", len(gl), len(wl))
	}
}

// FuzzReadResultJSON checks that the decoder never panics and that any
// record it accepts reaches a byte fixpoint after one more write and read.
// Seeds live in testdata/fuzz/FuzzReadResultJSON.
func FuzzReadResultJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResultJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tasks := range []bool{false, true} {
			var first, second bytes.Buffer
			if err := res.WriteJSON(&first, tasks); err != nil {
				t.Fatalf("writing accepted record (tasks %v): %v", tasks, err)
			}
			again, err := ReadResultJSON(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("reading own output (tasks %v): %v", tasks, err)
			}
			if err := again.WriteJSON(&second, tasks); err != nil {
				t.Fatalf("rewriting own output (tasks %v): %v", tasks, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("no byte fixpoint (tasks %v):\n%s\n---\n%s", tasks, first.Bytes(), second.Bytes())
			}
		}
	})
}

func TestEventStream(t *testing.T) {
	targets := smallTargets(t, 3, 23)
	coord, err := NewCoordinator(targets, fastAdaptive(23))
	if err != nil {
		t.Fatal(err)
	}
	stream := coord.Events(1024)
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := stream.Drain()
	if len(events) == 0 {
		t.Fatal("no events published")
	}
	counts := map[EventKind]int{}
	var lastAt int64 = -1
	for _, e := range events {
		counts[e.Kind]++
		if int64(e.At) < lastAt {
			t.Fatal("events out of time order")
		}
		lastAt = int64(e.At)
	}
	if counts[EventPipelineStarted] < 3 {
		t.Errorf("pipeline-started events: %d", counts[EventPipelineStarted])
	}
	if counts[EventCycleConcluded] != res.TrajectoryCount() {
		t.Errorf("cycle events %d != trajectories %d", counts[EventCycleConcluded], res.TrajectoryCount())
	}
	if counts[EventPipelineFinished] != res.BasePipelines+res.SubPipelines {
		t.Errorf("finished events %d != pipelines %d", counts[EventPipelineFinished], res.BasePipelines+res.SubPipelines)
	}
	if counts[EventSubPipelineSpawned] != res.SubPipelines {
		t.Errorf("spawn events %d != sub-pipelines %d", counts[EventSubPipelineSpawned], res.SubPipelines)
	}
	if counts[EventCampaignDone] != 1 {
		t.Errorf("campaign-done events: %d", counts[EventCampaignDone])
	}
	// Event rendering includes trajectory detail.
	sawDetail := false
	for _, e := range events {
		if e.Kind == EventCycleConcluded && strings.Contains(e.String(), "pLDDT") {
			sawDetail = true
			break
		}
	}
	if !sawDetail {
		t.Error("cycle events carry no metric detail")
	}
	if stream.Dropped() != 0 {
		t.Errorf("events dropped with ample buffer: %d", stream.Dropped())
	}
}

func TestEventStreamOverflowDropsOldest(t *testing.T) {
	targets := smallTargets(t, 3, 24)
	coord, err := NewCoordinator(targets, fastAdaptive(24))
	if err != nil {
		t.Fatal(err)
	}
	stream := coord.Events(4) // tiny buffer forces eviction
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	events := stream.Drain()
	if len(events) != 4 {
		t.Fatalf("buffer held %d events, want 4", len(events))
	}
	if stream.Dropped() == 0 {
		t.Fatal("no drops recorded despite tiny buffer")
	}
	// The final event must be the campaign-done marker (newest kept).
	if events[len(events)-1].Kind != EventCampaignDone {
		t.Fatalf("last event is %v", events[len(events)-1].Kind)
	}
}

func TestEventsAfterRunPanics(t *testing.T) {
	targets := smallTargets(t, 1, 25)
	coord, err := NewCoordinator(targets, fastControl(25))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Events after Run did not panic")
		}
	}()
	coord.Events(16)
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventPipelineStarted, EventCycleConcluded, EventSubPipelineSpawned, EventPipelineFinished, EventCampaignDone}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestTaskRecordsInResult(t *testing.T) {
	targets := smallTargets(t, 1, 26)
	res, err := RunControl(targets, fastControl(26))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskRecords) != res.TaskCount {
		t.Fatalf("task records %d != task count %d", len(res.TaskRecords), res.TaskCount)
	}
	for _, tr := range res.TaskRecords {
		if tr.State != "DONE" {
			t.Fatalf("task %s in state %s", tr.ID, tr.State)
		}
		if tr.EndedAt < tr.RunAt || tr.RunAt < tr.SetupAt {
			t.Fatalf("task %s timeline inverted", tr.ID)
		}
	}
	if len(res.FinalDesigns) != 1 {
		t.Fatalf("final designs: %d", len(res.FinalDesigns))
	}
	for name, st := range res.FinalDesigns {
		if st.Generation == 0 {
			t.Fatalf("final design %s still generation 0", name)
		}
	}
}
