// Command perfbench is the repository's benchmark of the campaign
// simulator. It runs one workload for a fixed time, checks the outputs
// against pinned digests, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a separate traced execution) as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 4.7, "unit": "s"}, ...}}
//
// Each execution runs in a fresh child process, so peak RSS and the Go
// heap belong to that execution alone; the run reports medians over its
// executions. Run it from the repository root:
//
//	bash perfbench/run.sh -workload fleet-churn -seed 42 -seconds 55 -trace 0
//
// "-workload all" runs every workload in turn.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"tasks_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricSpec{
	{"workload.build_s", "s"},
	{"workload.targets", "count"},
	{"landscape.new_ms", "ms"},
	{"tenancy.inrun_targets", "count"},
	{"mpnn.calls", "count"},
	{"mpnn.distinct", "count"},
	{"mpnn.redundancy", "ratio"},
	{"landscape.corrupt_ms", "ms"},
	{"mpnn.design_ms", "ms"},
	{"mpnn.cpu_share_est", "share"},
	{"fold.calls", "count"},
	{"fold.distinct", "count"},
	{"fold.predict_ms", "ms"},
	{"fold.cpu_share_est", "share"},
	{"campaign.run_s", "s"},
	{"campaign.count", "count"},
	{"campaign.span_p50_s", "s"},
	{"campaign.span_max_s", "s"},
	{"campaign.pool_idle_frac", "share"},
	{"pilot.tasks", "count"},
	{"pilot.tasks_per_run_s", "1/s"},
	{"pilot.attempt_ratio", "ratio"},
	{"fault.resubmissions", "count"},
	{"fault.node_crashes", "count"},
	{"steer.transfers", "count"},
	{"steer.vetoes", "count"},
	{"preempt.evictions", "count"},
	{"middleware.cpu_share_est", "share"},
	{"tenancy.tenants", "count"},
	{"tenancy.reclaims", "count"},
	{"telemetry.chrome_s", "s"},
	{"telemetry.chrome_mb", "MB"},
	{"persist.json_s", "s"},
	{"persist.json_mb", "MB"},
	{"report.render_s", "s"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// minExecutions is the fewest untraced executions a run makes, whatever
// its time budget: two are needed to check that outputs repeat.
const minExecutions = 2

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 42, "workload seed")
	seconds := flag.Int("seconds", 55, "measuring time per workload, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced execution")
	child := flag.Bool("child", false, "run one execution and print it as JSON (used by the parent process)")
	cpuprofile := flag.String("cpuprofile", "", "with -child: write a CPU profile of the execution to this file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *child {
		b, ok := lookupBench(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		return childMain(b, *seed, *trace == 1, *cpuprofile)
	}
	var selected []bench
	if *name == "all" {
		selected = benches
	} else if b, ok := lookupBench(*name); ok {
		selected = []bench{b}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: all", *name)
		for _, b := range benches {
			fmt.Fprintf(os.Stderr, ", %s", b.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		return 2
	}

	var sums []summary
	for _, b := range selected {
		sums = append(sums, measure(b, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
	}
	last := sums[0]
	if len(sums) > 1 {
		last = summary{Correct: true, Metrics: map[string]metricValue{}}
		for i, s := range sums {
			fmt.Printf("%s %s\n", selected[i].name, mustJSON(s))
			last.Correct = last.Correct && s.Correct
			last.Attempted += s.Attempted
			last.Failed += s.Failed
			for k, v := range s.Metrics {
				last.Metrics[selected[i].name+"."+k] = v
			}
		}
	}
	fmt.Println(mustJSON(last))
	if !last.Correct {
		return 1
	}
	return 0
}

func mustJSON(s summary) string {
	line, err := json.Marshal(s)
	if err != nil {
		panic(err) // a summary holds only numbers, strings and booleans
	}
	return string(line)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's result line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs executions of b until the time budget is spent and
// summarizes them. With traced set, one extra execution is traced and the
// summary carries the per-layer metrics instead of the end-to-end ones.
func measure(b bench, seed uint64, budget time.Duration, traced bool) summary {
	start := time.Now()
	s := summary{Metrics: map[string]metricValue{}}
	var reps []rep
	var tracedRep *rep
	executions := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: "+format+"\n", append([]any{b.name}, args...)...)
	}
	crashed := false
	if traced {
		r, err := spawn(b, seed, true)
		executions++
		if err != nil {
			fail("traced execution: %v", err)
			crashed = true
		} else {
			tracedRep = &r
		}
	}
	for !crashed {
		r, err := spawn(b, seed, false)
		executions++
		if err != nil {
			fail("execution %d: %v", executions, err)
			crashed = true
			break
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		perExecution := elapsed / time.Duration(executions)
		if len(reps) >= minExecutions && elapsed+perExecution > budget {
			break
		}
	}

	// Outputs must repeat across executions, match the pinned digest
	// where one exists, and hold no failed campaign.
	want, pinned := pinnedDigest(b.name, seed)
	all := reps
	if tracedRep != nil {
		all = append([]rep{*tracedRep}, reps...)
	}
	if !pinned && len(all) > 0 {
		want = all[0].Digest
	}
	for _, r := range all {
		s.Attempted += r.Campaigns
		s.Failed += len(r.Errors)
		for _, e := range r.Errors {
			fail("%s", e)
		}
		if r.Digest != want {
			fail("output digest %s, want %s", r.Digest, want)
			s.Failed += r.Campaigns - len(r.Errors)
		}
	}
	if crashed {
		s.Attempted++
		s.Failed++
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0

	if traced {
		if tracedRep != nil {
			for _, m := range perLayer {
				s.Metrics[m.name] = metricValue{tracedRep.Layers[m.name], m.unit}
			}
			s.Metrics["trace.overhead_s"] = metricValue{tracedRep.WallS - medianOf(reps, func(r rep) float64 { return r.WallS }), "s"}
		}
	} else if len(reps) > 0 {
		get := map[string]func(rep) float64{
			"wall_s":      func(r rep) float64 { return r.WallS },
			"setup_s":     func(r rep) float64 { return r.SetupS },
			"cpu_s":       func(r rep) float64 { return r.CPUS },
			"tasks_per_s": func(r rep) float64 { return float64(r.Tasks) / r.WallS },
			"alloc_mb":    func(r rep) float64 { return r.AllocMB },
		}
		for _, m := range endToEnd {
			s.Metrics[m.name] = metricValue{medianOf(reps, get[m.name]), m.unit}
		}
	}

	fmt.Fprintf(os.Stderr, "%s seed %d: %d executions (%d untraced) in %.1f s, %d/%d campaigns failed (error_rate %.3f), digest %s pinned=%v\n",
		b.name, seed, executions, len(reps), time.Since(start).Seconds(), s.Failed, s.Attempted,
		float64(s.Failed)/float64(max(s.Attempted, 1)), want, pinned)
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, m := range specs {
		if v, ok := s.Metrics[m.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	return s
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// spawn runs one execution of b in a child process and waits for it.
func spawn(b bench, seed uint64, traced bool) (rep, error) {
	self, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", b.name, "-seed", strconv.FormatUint(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	// The child dies with this process, so a killed run leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return rep{}, fmt.Errorf("child process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	var r rep
	if err := json.Unmarshal(last, &r); err != nil {
		return rep{}, fmt.Errorf("child output: %w", err)
	}
	return r, nil
}

// childMain makes one execution and prints it as JSON. A traced
// execution also writes its spans under .bench_build/spans.
func childMain(b bench, seed uint64, traced bool, cpuprofile string) int {
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s/seed%d", b.name, seed))
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	r, err := executeRep(b, seed, fullSizes, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if tr != nil {
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", b.name, seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
