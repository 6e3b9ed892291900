package report

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"impress/internal/core"
	"impress/internal/stats"
)

// The sweep grids. Each compares the cells of one sweep scenario,
// aggregated over seeds; the fault-injecting sweeps measure every cell
// against the fault-free baselines of the same seeds.

// PolicyCompare is the scheduling-policy comparison: one row per policy,
// with the scheduler's levers — makespan, queue wait, utilization — and
// the science outcome, so a policy that goes fast by starving the
// protocol shows up immediately.
var PolicyCompare = Grid{
	Title: "Scheduling-policy comparison (medians over campaigns; waits averaged)\n",
	Cols: []Col{
		{Head: "Policy", CSV: "policy", Of: (*core.Result).PolicyLabel},
		{Head: "Campaigns", Agg: runs},
		approachCol, makespanCol, waitCol, maxWaitCol, cpuCol, gpuCol, trajCol, dplddtCol,
	},
}

// Elastic is the steering comparison: one row per steering policy,
// against the frozen split ("none") of the same seeds, which is itself a
// row with speedup 1.
var Elastic = Grid{
	Title: "Elastic steering comparison (medians over seeds; waits averaged, transfers summed;\n" +
		"speedup = frozen-split makespan / policy makespan, per seed)\n",
	Baseline:       func(r *core.Result) bool { return r.SteerLabel() == "none" },
	BaselineIsCell: true,
	NoBaseline:     "(no frozen-split runs: speedup unavailable)\n",
	Cols: []Col{
		steerKey,
		{Head: "Runs", Agg: runs},
		seedCol, approachCol, makespanCol,
		ratioCol("Speedup ×", "%.3f", "speedup", "", speedup),
		waitCol, maxWaitCol, cpuCol, gpuCol,
		{Head: "Transfers", Agg: total(transfers), CSV: "node_transfers", Cell: count(transfers)},
		{Head: "Vetoes", Agg: total(vetoes), CSV: "steer_vetoes", Cell: count(vetoes)},
		trajCol, dplddtCol,
	},
}

// Resilience is the fault-sweep comparison: one row per (recovery
// policy, failure rate) cell, with the resilience levers — goodput,
// wasted allocation, makespan inflation, pipeline survival — and the
// attempts histogram that shows how hard recovery had to work.
var Resilience = Grid{
	Title:      "Resilience comparison (medians over seeds; counts summed)\n",
	Baseline:   faultFree,
	NoBaseline: noFaultFree,
	Cols: []Col{
		recoveryKey, {
			Head: "Fail rate", CSV: "fail_rate", Base: "0",
			Of:   func(r *core.Result) string { return fmt.Sprintf("%.2f", r.Faults.Spec.TaskFailProb) },
			Cell: func(x Row) string { return fmt.Sprintf("%.4f", x.Faults.Spec.TaskFailProb) },
			Rank: func(r *core.Result) float64 { return r.Faults.Spec.TaskFailProb },
		},
		{Head: "Runs", Agg: runs},
		seedCol, approachCol, goodputCol, makespanCol, inflationCol,
		faultCount("Killed PL", "killed_pipelines", func(f *core.FaultStats) int { return f.KilledPipelines }),
		faultCount("Resub", "resubmissions", func(f *core.FaultStats) int { return f.Resubmissions }),
		faultCount("Term", "terminal_failures", func(f *core.FaultStats) int { return f.TerminalFailures }),
		faultCount("", "task_faults", func(f *core.FaultStats) int { return f.TaskFaults }),
		faultCount("", "node_crashes", func(f *core.FaultStats) int { return f.NodeCrashes }),
		{Head: "Wasted core-h", Agg: median("%.1f", wasted), CSV: "wasted_core_h", Cell: f4(wasted), Base: "0"},
		downtimeCol,
		{Head: "Attempts", Agg: attemptsLabel, CSV: "max_attempts", Base: "1",
			Cell: func(x Row) string { return fmt.Sprintf("%d", x.Faults.MaxAttempts()) }},
	},
}

// Chaos is the chaos-sweep comparison: one row per (recovery, steering)
// pair under a fixed correlated-failure mix, racing the two levers a
// campaign owner controls: how tasks recover and whether capacity is
// steered around the holes.
var Chaos = Grid{
	Title:      "Chaos comparison: recovery × steering under correlated failures (medians over seeds; counts summed)\n",
	Baseline:   faultFree,
	NoBaseline: noFaultFree,
	Cols: []Col{
		recoveryKey, steerKey,
		{Head: "Runs", Agg: runs},
		seedCol, approachCol, goodputCol, makespanCol, inflationCol,
		faultCount("Crashes", "node_crashes", func(f *core.FaultStats) int { return f.NodeCrashes }),
		faultCount("Outages", "domain_outages", func(f *core.FaultStats) int { return f.DomainOutages }),
		faultCount("Maint", "maintenance_windows", func(f *core.FaultStats) int { return f.MaintenanceWindows }),
		downtimeCol, transfersCol, killedCol, resubCol, termCol,
	},
	Footer: domainCrashes,
}

// Preemption is the preempt-sweep comparison: one row per (checkpoint
// interval, kill-vs-drain, steering) cell. It answers what interrupted
// work costs: with checkpointing off every eviction restarts its attempt
// from zero (wasted core-hours), while evict-and-resume forfeits only
// the slice past the last checkpoint (preempted core-hours).
var Preemption = Grid{
	Title: "Preemption comparison: checkpoint cadence × walltime mode × steering " +
		"(medians over seeds; counts and core-hours summed)\n",
	Baseline:   faultFree,
	NoBaseline: noFaultFree,
	Cols: []Col{
		ckptKey, modeKey, steerKey,
		{Head: "Runs", Agg: runs},
		seedCol, approachCol, goodputCol, makespanCol, inflationCol,
		{Head: "Wasted core-h", Agg: totalf("%.2f", 1, wasted), CSV: "wasted_core_h", Cell: f4(wasted), Base: "0"},
		{Head: "Preempted core-h", Agg: totalf("%.2f", 1, preempted), CSV: "preempted_core_h", Cell: f4(preempted), Base: "0"},
		faultCount("Evictions", "evictions", func(f *core.FaultStats) int { return f.Evictions }),
		faultCount("Resumes", "resumes", func(f *core.FaultStats) int { return f.Resumes }),
		faultCount("WT kills", "walltime_kills", func(f *core.FaultStats) int { return f.WalltimeKills }),
		transfersCol, killedCol, resubCol, termCol,
	},
}

// ckptKey and modeKey are the preemption grid's checkpoint-cadence and
// walltime-mode keys.
var (
	ckptKey = Col{
		Head: "Ckpt", CSV: "checkpoint_interval_s", Base: "baseline",
		Of: func(r *core.Result) string {
			if r.CheckpointInterval <= 0 {
				return "off"
			}
			return DurLabel(r.CheckpointInterval)
		},
		Cell: func(x Row) string { return fmt.Sprintf("%.0f", x.CheckpointInterval.Seconds()) },
		Rank: func(r *core.Result) float64 { return float64(r.CheckpointInterval) },
	}
	modeKey = Col{
		Head: "Mode", CSV: "mode", Base: "baseline",
		Of: func(r *core.Result) string {
			if r.WalltimeGrace > 0 {
				return "drain"
			}
			return "kill"
		},
		Rank: func(r *core.Result) float64 {
			if r.WalltimeGrace > 0 {
				return 1 // kill before drain
			}
			return 0
		},
	}
)

// Fairness is the multi-tenant admission comparison: one row per
// admission policy, with Jain's fairness index over per-tenant
// slowdowns, the slowdown distribution, admission wait and reclaim
// traffic, plus aggregate makespan, so a policy that buys fairness by
// stalling the whole fleet shows up immediately. Its CSV is the
// per-tenant FairnessCSV.
var Fairness = Grid{
	Title: "Multi-tenant fairness comparison (Jain's index over per-tenant slowdowns;\n" +
		"medians over seeds, waits averaged over tenants, reclaims summed)\n",
	Only: func(r *core.Result) bool { return len(r.Tenants) > 0 },
	Cols: []Col{
		{Head: "Admission", Of: func(r *core.Result) string { return cmp.Or(r.Admission, "fcfs-admit") }},
		{Head: "Runs", Agg: runs},
		{Head: "Tenants", Agg: total(func(x Row) int { return len(x.Tenants) })},
		{Head: "Jain", Agg: median("%.3f", func(x Row) float64 { return JainOf(x.Result) })},
		{Head: "Slowdown p50", Agg: pooled(func(v []float64) float64 { return stats.Quantile(v, 0.5) }, slowdown)},
		{Head: "p90", Agg: pooled(func(v []float64) float64 { return stats.Quantile(v, 0.9) }, slowdown)},
		{Head: "max", Agg: pooled(stats.Max, slowdown)},
		{Head: "Wait (h)", Agg: pooled(stats.Mean, func(ts core.TenantStat) float64 { return ts.Wait.Hours() })},
		{Head: "Makespan (h)", Agg: median("%.2f", hours)},
		{Head: "Reclaims", Agg: total(func(x Row) int {
			n := 0
			for _, ts := range x.Tenants {
				n += ts.Reclaimed
			}
			return n
		})},
	},
}

// Shared keys and columns.

var (
	faultFree   = func(r *core.Result) bool { return r.Faults == nil }
	noFaultFree = "(no fault-free baseline runs: makespan inflation unavailable)\n"

	recoveryKey = Col{Head: "Recovery", CSV: "recovery", Base: "baseline",
		Of: func(r *core.Result) string { return r.Faults.Recovery }}
	steerKey = Col{Head: "Steer", CSV: "steer", Of: (*core.Result).SteerLabel}

	seedCol      = Col{CSV: "seed", Cell: func(x Row) string { return fmt.Sprintf("%d", x.Seed) }}
	approachCol  = Col{CSV: "approach", Cell: func(x Row) string { return x.Approach }}
	goodputCol   = Col{Head: "Goodput %", Agg: percent(goodput), CSV: "goodput", Cell: f4(goodput)}
	makespanCol  = Col{Head: "Makespan (h)", Agg: median("%.2f", hours), CSV: "makespan_h", Cell: f4(hours)}
	inflationCol = ratioCol("Inflation ×", "%.2f", "inflation", "1", inflation)
	downtimeCol  = Col{Head: "Downtime node-h", Agg: totalf("%.2f", 3600, downtime), CSV: "downtime_node_s",
		Cell: func(x Row) string { return fmt.Sprintf("%.1f", downtime(x)) }, Base: "0"}
	transfersCol = Col{Head: "Transfers", Agg: total(transfers), CSV: "transfers", Cell: count(transfers)}
	killedCol    = faultCount("Killed PL", "killed_pipelines", func(f *core.FaultStats) int { return f.KilledPipelines })
	resubCol     = faultCount("", "resubmissions", func(f *core.FaultStats) int { return f.Resubmissions })
	termCol      = faultCount("", "terminal_failures", func(f *core.FaultStats) int { return f.TerminalFailures })

	waitCol = Col{Head: "Queue wait", Agg: meanWait, CSV: "queue_wait_mean_m",
		Cell: func(x Row) string { m, _ := x.QueueWait(); return fmt.Sprintf("%.4f", m.Minutes()) }}
	maxWaitCol = Col{Head: "Max wait", Agg: maxWait, CSV: "queue_wait_max_m",
		Cell: func(x Row) string { _, m := x.QueueWait(); return fmt.Sprintf("%.4f", m.Minutes()) }}
	cpuCol  = Col{Head: "CPU %", Agg: percent(cpuUtil), CSV: "cpu_util", Cell: f4(cpuUtil)}
	gpuCol  = Col{Head: "GPU %", Agg: percent(gpuUtil), CSV: "gpu_util", Cell: f4(gpuUtil)}
	trajCol = Col{Head: "Traj", Agg: median("%.1f", func(x Row) float64 { return float64(x.TrajectoryCount()) }),
		CSV: "trajectories", Cell: count(func(x Row) int { return x.TrajectoryCount() })}
	dplddtCol = Col{Head: "ΔpLDDT", Agg: median("%+.2f", dplddt), CSV: "dplddt", Cell: f4(dplddt)}
)

func hours(x Row) float64     { return x.Makespan.Hours() }
func goodput(x Row) float64   { return x.Goodput() }
func cpuUtil(x Row) float64   { return x.CPUUtilization }
func gpuUtil(x Row) float64   { return x.GPUUtilization }
func dplddt(x Row) float64    { return x.NetDelta(core.PLDDTOf) }
func wasted(x Row) float64    { return x.Faults.WastedCoreHours }
func preempted(x Row) float64 { return x.Faults.PreemptedCoreHours }
func downtime(x Row) float64  { return x.Faults.DowntimeNodeSeconds }
func transfers(x Row) int     { return x.NodeTransfers }
func vetoes(x Row) int        { return x.SteerVetoes }

func slowdown(ts core.TenantStat) float64 { return ts.Slowdown }

// faultCount is a summed fault-statistics count, 0 on baseline rows.
func faultCount(head, csv string, f func(*core.FaultStats) int) Col {
	g := func(x Row) int { return f(x.Faults) }
	return Col{Head: head, Agg: total(g), CSV: csv, Cell: count(g), Base: "0"}
}

// pooled renders agg over every tenant of a group, at two decimals.
func pooled(agg func([]float64) float64, f func(core.TenantStat) float64) func([]Row) string {
	return func(rs []Row) string {
		var vs []float64
		for _, x := range rs {
			for _, ts := range x.Tenants {
				vs = append(vs, f(ts))
			}
		}
		return fmt.Sprintf("%.2f", agg(vs))
	}
}

// meanWait averages the per-campaign mean queue waits of a group.
func meanWait(rs []Row) string {
	var sum time.Duration
	for _, x := range rs {
		m, _ := x.QueueWait()
		sum += m
	}
	return fmtWait(sum / time.Duration(len(rs)))
}

// maxWait is the longest queue wait of a group.
func maxWait(rs []Row) string {
	var longest time.Duration
	for _, x := range rs {
		if _, m := x.QueueWait(); m > longest {
			longest = m
		}
	}
	return fmtWait(longest)
}

// attemptsLabel renders a group's merged attempts histogram compactly:
// "1×37 2×5 3×1".
func attemptsLabel(rs []Row) string {
	hist := make(map[int]int)
	for _, x := range rs {
		for a, n := range x.Faults.AttemptsHistogram {
			hist[a] += n
		}
	}
	if len(hist) == 0 {
		return "-"
	}
	var parts []string
	for _, a := range slices.Sorted(maps.Keys(hist)) {
		parts = append(parts, fmt.Sprintf("%d×%d", a, hist[a]))
	}
	return strings.Join(parts, " ")
}

// domainCrashes sums per-domain crash counts across all fault runs and
// renders them "rackA×12 rackB×7 (unlabeled)×3", sorted by domain.
func domainCrashes(results []*core.Result) string {
	crashes := make(map[string]int)
	for _, r := range results {
		if r == nil || r.Faults == nil {
			continue
		}
		for dom, n := range r.Faults.DomainCrashes {
			crashes[dom] += n
		}
	}
	if len(crashes) == 0 {
		return ""
	}
	var parts []string
	for _, d := range slices.Sorted(maps.Keys(crashes)) {
		label := d
		if label == "" {
			label = "(unlabeled)"
		}
		parts = append(parts, fmt.Sprintf("%s×%d", label, crashes[d]))
	}
	return "Crashes by domain (all cells): " + strings.Join(parts, " ") + "\n"
}
