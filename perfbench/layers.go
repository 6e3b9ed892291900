package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/fold"
	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // 1-based index of the causing span; 0 for none
	Run    string  `json:"run"`
	Bytes  int64   `json:"bytes,omitempty"`
}

// tracer keeps spans in memory for one traced execution. Every method is
// a no-op on a nil tracer, which is how untraced executions run.
type tracer struct {
	run   string
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

func (t *tracer) start(t0 time.Time) {
	if t != nil {
		t.t0 = t0
	}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: math.NaN(), Parent: parent, Run: t.run})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endBytes(id, 0) }

// endBytes closes a span that wrote n bytes.
func (t *tracer) endBytes(id int, n int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = n
}

// find returns the first closed span with the given name.
func (t *tracer) find(name string) (span, bool) {
	for _, s := range t.spans {
		if s.Name == name && !math.IsNaN(s.End) {
			return s, true
		}
	}
	return span{}, false
}

func (s span) seconds() float64 { return s.End - s.Start }

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Probe sizes: the payload probes replay each call probeRepeats times on
// probeTargets of the workload's own targets and report the median.
const (
	probeTargets = 4
	probeRepeats = 3
)

// layerMetrics derives the per-layer metrics of a traced execution from
// its spans, the exact counts in its results, and payload probes replayed
// on its own targets after the run. runCPU is the process CPU time spent
// in the engine run.
func layerMetrics(pl *plan, outs []campaign.Outcome, tr *tracer, runCPU, gcShare, gcCycles float64) (map[string]float64, error) {
	m := map[string]float64{}
	rs := results(outs)

	build, _ := tr.find("workload.build")
	m["workload.build_s"] = build.seconds()
	m["workload.targets"] = float64(len(pl.targets))
	m["tenancy.inrun_targets"] = float64(inRunTargets(pl.campaigns))

	run, _ := tr.find("campaign.run")
	runS := run.seconds()
	var spans []float64
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "campaign:") {
			spans = append(spans, s.seconds())
		}
	}
	m["campaign.run_s"] = runS
	m["campaign.count"] = float64(len(spans))
	m["campaign.span_p50_s"] = median(spans)
	m["campaign.span_max_s"] = maxOf(spans)
	m["campaign.pool_idle_frac"] = 1 - sum(spans)/(float64(engineWorkers)*runS)

	probeSpan := tr.begin("probe", 0)
	if _, ok := tr.find("telemetry.chrome"); !ok {
		// Workloads that keep no artifacts get the same writes replayed
		// after the run, so every workload reports its bookkeeping cost.
		if err := writeArtifacts(outs, tr); err != nil {
			return nil, fmt.Errorf("artifact probe: %w", err)
		}
	}
	chrome, _ := tr.find("telemetry.chrome")
	js, _ := tr.find("persist.json")
	rendered, _ := tr.find("report.render")
	m["telemetry.chrome_s"] = chrome.seconds()
	m["telemetry.chrome_mb"] = float64(chrome.Bytes) / 1e6
	m["persist.json_s"] = js.seconds()
	m["persist.json_mb"] = float64(js.Bytes) / 1e6
	m["report.render_s"] = rendered.seconds()

	p := replayPayloads(pl, tr, probeSpan)
	tr.end(probeSpan)
	m["landscape.new_ms"] = p.newMS
	m["landscape.corrupt_ms"] = p.corruptMS
	m["mpnn.design_ms"] = p.designMS
	m["fold.predict_ms"] = p.predictMS

	mc := countStage(rs, "mpnn")
	fc := countStage(rs, "af_fold")
	m["mpnn.calls"] = float64(mc.calls)
	m["mpnn.distinct"] = float64(mc.distinct)
	m["mpnn.redundancy"] = ratio(mc.calls, mc.distinct)
	m["fold.calls"] = float64(fc.calls)
	m["fold.distinct"] = float64(fc.distinct)
	mpnnShare := float64(mc.calls) * p.designMS / 1e3 / runCPU
	foldShare := float64(fc.calls) * p.predictMS / 1e3 / runCPU
	buildShare := m["tenancy.inrun_targets"] * p.newMS / 1e3 / runCPU
	m["mpnn.cpu_share_est"] = mpnnShare
	m["fold.cpu_share_est"] = foldShare
	m["middleware.cpu_share_est"] = 1 - mpnnShare - foldShare - buildShare

	var tasks, attempts, chains, resub, crashes, transfers, vetoes, evictions, tenants, reclaims int
	for _, r := range rs {
		tasks += r.TaskCount
		attempts += len(r.TaskRecords)
		for _, rec := range r.TaskRecords {
			if rec.Attempt == 1 {
				chains++
			}
			if rec.Fault == fault.KindPreempt.String() {
				evictions++
			}
		}
		if r.Faults != nil {
			resub += r.Faults.Resubmissions
			crashes += r.Faults.NodeCrashes
		}
		transfers += r.NodeTransfers
		vetoes += r.SteerVetoes
		tenants += len(r.Tenants)
		for _, ts := range r.Tenants {
			reclaims += ts.Reclaimed
		}
	}
	m["pilot.tasks"] = float64(tasks)
	m["pilot.tasks_per_run_s"] = float64(tasks) / runS
	m["pilot.attempt_ratio"] = ratio(attempts, chains)
	m["fault.resubmissions"] = float64(resub)
	m["fault.node_crashes"] = float64(crashes)
	m["steer.transfers"] = float64(transfers)
	m["steer.vetoes"] = float64(vetoes)
	m["preempt.evictions"] = float64(evictions)
	m["tenancy.tenants"] = float64(tenants)
	m["tenancy.reclaims"] = float64(reclaims)
	m["runtime.gc_cpu_share"] = gcShare
	m["runtime.gc_cycles"] = gcCycles
	return m, nil
}

// stageCount is the exact payload accounting of one pipeline stage.
type stageCount struct {
	// calls counts attempts of the stage that reached run, which is when
	// the program computes the payload.
	calls int
	// distinct counts the payload inputs among them, keyed by what the
	// payload depends on: campaign seed, target, pipeline and cycle (the
	// task name), one per retry chain. Campaigns of one seed replay one
	// another's inputs, so a key counts as many times as the most chains
	// any one campaign of that seed gave it. A multi-tenant result pools
	// its tenants' records without naming the tenant, and its tenants
	// have distinct seeds, so there the count per key is the number of
	// tenants that ran it.
	distinct int
}

func countStage(rs []*core.Result, stage string) stageCount {
	type key struct {
		seed                   uint64
		target, pipeline, name string
	}
	most := map[key]int{}
	var c stageCount
	for _, r := range rs {
		target := map[string]string{}
		for _, t := range r.Trajectories {
			target[t.PipelineID] = t.Target
		}
		if len(r.Tenants) > 0 {
			target = nil // tenant-local pipeline IDs name no one target
		}
		chains := map[key]int{}
		for _, rec := range r.TaskRecords {
			if rec.Stage != stage {
				continue
			}
			if rec.RunAt > 0 {
				c.calls++
			}
			if rec.Attempt == 1 {
				chains[key{r.Seed, target[rec.Pipeline], rec.Pipeline, rec.Name}]++
			}
		}
		for k, n := range chains {
			most[k] = max(most[k], n)
		}
	}
	for _, n := range most {
		c.distinct += n
	}
	return c
}

// inRunTargets counts the targets the program builds inside the run: a
// multi-tenant service builds each tenant's workload when it starts.
func inRunTargets(cs []campaign.Campaign) int {
	n := 0
	for _, c := range cs {
		if c.Tenancy == nil {
			continue
		}
		for _, ts := range c.Tenancy.Tenants {
			n += ts.TargetCount
		}
	}
	return n
}

// payloadTimes are the medians of the replayed payload calls.
type payloadTimes struct {
	newMS, corruptMS, designMS, predictMS float64
}

// replayPayloads times the payload layers' public calls on the
// workload's own targets, one goroutine and one sampler worker at a time.
// Each call kind runs in its own loop after a collection, so garbage from
// one kind (landscape.New allocates whole models) does not slow the next.
func replayPayloads(pl *plan, tr *tracer, parent int) payloadTimes {
	cfg := core.AdaptiveConfig(0).Pipeline
	cfg.MPNN.Parallelism = 1
	targets := probeSample(pl, probeTargets)
	timed := func(name string, call func(t *workload.Target, seed uint64)) float64 {
		runtime.GC()
		var ms []float64
		for _, t := range targets {
			call(t, t.Seed) // warm caches, as repeated in-run calls find them
			for i := 0; i < probeRepeats; i++ {
				seed := xrand.DeriveN(t.Seed, uint64(i))
				sp := tr.begin(name, parent)
				start := time.Now()
				call(t, seed)
				ms = append(ms, float64(time.Since(start))/1e6)
				tr.end(sp)
			}
		}
		return median(ms)
	}
	sampler := func(t *workload.Target) *mpnn.Sampler {
		s, err := mpnn.New(t.Truth, cfg.MPNN)
		if err != nil {
			panic(fmt.Sprintf("probe sampler: %v", err))
		}
		return s
	}
	var p payloadTimes
	p.corruptMS = timed("probe:Model.Corrupt", func(t *workload.Target, seed uint64) {
		level := sampler(t).CorruptionFor(t.Structure.Generation)
		t.Truth.Recycle(t.Truth.Corrupt(level, seed))
	})
	p.designMS = timed("probe:Sampler.Design", func(t *workload.Target, seed uint64) {
		sampler(t).Design(t.Structure, seed)
	})
	p.predictMS = timed("probe:Predictor.Predict", func(t *workload.Target, seed uint64) {
		predictor, err := fold.New(t.Truth, cfg.Fold, seed)
		if err != nil {
			panic(fmt.Sprintf("probe predictor: %v", err))
		}
		predictor.Predict(t.Structure.FullSequence(), t.Structure.IsComplex())
	})
	p.newMS = timed("probe:landscape.New", func(t *workload.Target, seed uint64) {
		landscape.New(t.Structure, t.Seed, pl.landscape)
	})
	return p
}

// probeSample picks up to k evenly spaced targets of the workload. A
// multi-tenant service builds its targets inside the run, so they are
// rebuilt here from the first service's tenant specs, as the service
// builds them.
func probeSample(pl *plan, k int) []*workload.Target {
	all := pl.targets
	for _, c := range pl.campaigns {
		if c.Tenancy == nil {
			continue
		}
		for _, ts := range c.Tenancy.Tenants {
			if len(all) >= k {
				break
			}
			targets, err := workload.MinedScreen(xrand.Derive(ts.Seed, "tenant:"+ts.Name), ts.TargetCount, workload.DefaultConfig())
			if err != nil {
				panic(fmt.Sprintf("probe tenant targets: %v", err))
			}
			all = append(all, targets...)
		}
	}
	if len(all) <= k {
		return all
	}
	out := make([]*workload.Target, k)
	for i := range out {
		out[i] = all[i*len(all)/k]
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
