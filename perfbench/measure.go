package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/telemetry"
)

// rep is one measured execution of a workload, made in a fresh process so
// that peak RSS and the heap belong to this execution alone.
type rep struct {
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	// Tasks is Σ Result.TaskCount over the completed campaigns.
	Tasks     int      `json:"tasks"`
	Campaigns int      `json:"campaigns"`
	Errors    []string `json:"errors,omitempty"`
	// Digest is the SHA-256 of the workload's outputs (see outputDigest).
	Digest string `json:"digest"`
	// Layers holds the per-layer metrics of a traced execution.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// A set-up cheaper than setupRepeatBelow is repeated after the timed
// interval until the repeats have taken setupRepeatBelow, at most
// setupRepeats times in all, so setup_s is a median of many set-ups
// where one is too short to time on its own.
const (
	setupRepeatBelow = 100 * time.Millisecond
	setupRepeats     = 1000
)

// executeRep runs one workload execution. The timed interval covers
// set-up, the engine run, and the report and artifact writes; the output
// digest, the extra set-ups and (when traced) the probes come after it.
func executeRep(b bench, seed uint64, sz sizes, tr *tracer) (rep, error) {
	runtime.GC()
	cpu0, alloc0 := cpuSeconds(), heapAllocBytes()
	gcCPU0, gcCycles0 := readMetric("/cpu/classes/gc/total:cpu-seconds"), readMetric("/gc/cycles/total:gc-cycles")
	t0 := time.Now()
	tr.start(t0)

	sp := tr.begin("workload.build", 0)
	pl, err := b.setup(seed, sz)
	tr.end(sp)
	if err != nil {
		return rep{}, fmt.Errorf("%s set-up: %w", b.name, err)
	}
	setup := time.Since(t0)

	runCPU0 := cpuSeconds()
	sp = tr.begin("campaign.run", 0)
	outs := runCampaigns(pl.campaigns, tr, sp)
	tr.end(sp)
	runCPU := cpuSeconds() - runCPU0

	rs := results(outs)
	var sink countingWriter
	sp = tr.begin("report.render", 0)
	err = renderReport(pl, rs, &sink)
	tr.end(sp)
	if err != nil {
		return rep{}, fmt.Errorf("%s report: %w", b.name, err)
	}
	if pl.artifacts {
		if err := writeArtifacts(outs, tr); err != nil {
			return rep{}, fmt.Errorf("%s artifacts: %w", b.name, err)
		}
	}
	wall := time.Since(t0)
	cpu := cpuSeconds() - cpu0
	alloc := heapAllocBytes() - alloc0
	gcCPU := readMetric("/cpu/classes/gc/total:cpu-seconds") - gcCPU0
	gcCycles := readMetric("/gc/cycles/total:gc-cycles") - gcCycles0
	peak := peakRSSMB()

	r := rep{
		SetupS:    setup.Seconds(),
		WallS:     wall.Seconds(),
		CPUS:      cpu,
		AllocMB:   float64(alloc) / 1e6,
		Campaigns: len(outs),
	}
	for _, o := range outs {
		if o.Err != nil {
			r.Errors = append(r.Errors, o.Err.Error())
			continue
		}
		r.Tasks += o.Result.TaskCount
	}
	if r.Digest, err = outputDigest(pl, outs); err != nil {
		return rep{}, err
	}

	setups := []float64{r.SetupS}
	for spent := setup; spent < setupRepeatBelow && len(setups) < setupRepeats; {
		t := time.Now()
		if _, err := b.setup(seed, sz); err != nil {
			return rep{}, fmt.Errorf("%s set-up: %w", b.name, err)
		}
		d := time.Since(t)
		spent += d
		setups = append(setups, d.Seconds())
	}
	r.SetupS = median(setups)

	if tr != nil {
		if r.Layers, err = layerMetrics(pl, outs, tr, runCPU, gcCPU/cpu, gcCycles); err != nil {
			return rep{}, fmt.Errorf("%s: %w", b.name, err)
		}
		r.Layers["runtime.peak_rss_mb"] = peak
	}
	return r, nil
}

// runCampaigns runs the plan on the engine. A traced execution calls the
// engine once per campaign on the same worker count, so each campaign
// gets a span; the engine's process-wide active-campaign count keeps the
// payloads' inner parallelism what it is untraced.
func runCampaigns(cs []campaign.Campaign, tr *tracer, parent int) []campaign.Outcome {
	if tr == nil {
		return campaign.NewEngine(engineWorkers).Run(cs)
	}
	outs := make([]campaign.Outcome, len(cs))
	one := campaign.NewEngine(1)
	campaign.RunIndexed(len(cs), engineWorkers, func(i int) {
		sp := tr.begin("campaign:"+cs[i].Name, parent)
		outs[i] = one.Run(cs[i : i+1])[0]
		tr.end(sp)
	})
	return outs
}

// writeArtifacts writes the Chrome trace and the result JSON with task
// records. They go to a byte counter, not to disk: the benchmark
// measures the program's serialization, not the machine's storage.
func writeArtifacts(outs []campaign.Outcome, tr *tracer) error {
	rs, labels := results(outs), completedNames(outs)
	var chrome, js countingWriter
	sp := tr.begin("telemetry.chrome", 0)
	err := writeChrome(&chrome, rs, labels)
	tr.endBytes(sp, chrome.n)
	if err != nil {
		return err
	}
	sp = tr.begin("persist.json", 0)
	for _, r := range rs {
		if err = r.WriteJSON(&js, true); err != nil {
			break
		}
	}
	tr.endBytes(sp, js.n)
	return err
}

func writeChrome(w io.Writer, rs []*core.Result, labels []string) error {
	cts := make([]telemetry.CampaignTrace, len(rs))
	for i, r := range rs {
		cts[i] = r.CampaignTrace(labels[i])
	}
	return telemetry.WriteChromeTrace(w, cts)
}

func completedNames(outs []campaign.Outcome) []string {
	var names []string
	for _, o := range outs {
		if o.Result != nil {
			names = append(names, o.Name)
		}
	}
	return names
}

// outputDigest is the SHA-256 over every outcome's result JSON with task
// records, in input order, followed by the scenario's report CSV. A
// failed campaign contributes its error text, so a failure also changes
// the digest.
func outputDigest(pl *plan, outs []campaign.Outcome) (string, error) {
	h := sha256.New()
	for _, o := range outs {
		if o.Err != nil {
			fmt.Fprintf(h, "error %s: %v\n", o.Name, o.Err)
			continue
		}
		if err := o.Result.WriteJSON(h, true); err != nil {
			return "", fmt.Errorf("%s result JSON: %w", o.Name, err)
		}
	}
	if pl.reportCSV != nil {
		if err := pl.reportCSV(h, results(outs)); err != nil {
			return "", fmt.Errorf("report CSV: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readMetric reads one runtime/metrics value as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	panic(fmt.Sprintf("runtime metric %s is unsupported", name))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
