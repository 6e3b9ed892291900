package core

import (
	"strings"
	"time"

	"impress/internal/fault"
	"impress/internal/ga"
	"impress/internal/landscape"
	"impress/internal/pilot"
	"impress/internal/pipeline"
	"impress/internal/protein"
	"impress/internal/stats"
	"impress/internal/steer"
	"impress/internal/telemetry"
	"impress/internal/trace"
)

// Result is a completed campaign's full record: everything the paper's
// Table I and Figures 2–5 are derived from. Its JSON tags, with those of
// the types it holds, are the schema-1 file that WriteJSON writes: a new
// field must be additive (omitempty or zero-defaulting) so older files
// still decode, and a runtime-only field needs `json:"-"`.
type Result struct {
	// Approach labels the protocol ("IM-RP" or "CONT-V").
	Approach string `json:"approach"`
	// Seed is the campaign's root seed (Config.Seed) — the key resilience
	// reports use to pair fault-injected runs with their fault-free
	// baselines.
	Seed uint64 `json:"seed"`
	// Targets lists the campaign's target names in submission order.
	Targets []string `json:"targets"`

	// Trajectories are all concluded design cycles, in conclusion order.
	Trajectories []pipeline.Trajectory `json:"trajectories"`
	// Pool is the coordinator's global result pool (per-iteration
	// metric buckets for Figs. 2 and 3), stored as its entry list.
	Pool *ga.Pool `json:"pool_entries"`

	// BasePipelines and SubPipelines count pipeline instances; Table I's
	// "# PL" and "# Sub-PL".
	BasePipelines int `json:"base_pipelines"`
	SubPipelines  int `json:"sub_pipelines"`
	// EarlyTerminated counts pipelines that died of retry exhaustion.
	EarlyTerminated int `json:"early_terminated"`
	// Evaluations counts AlphaFold predictions (Stage 4 executions).
	Evaluations int `json:"evaluations"`
	// TaskCount is the number of pilot tasks submitted.
	TaskCount int `json:"task_count"`
	// FailedTasks counts runtime failures (0 in healthy campaigns).
	FailedTasks int `json:"failed_tasks"`

	// CPUUtilization and GPUUtilization are busy-resource fractions
	// (0..1) over the makespan — Figs. 4 and 5.
	CPUUtilization float64 `json:"cpu_utilization"`
	GPUUtilization float64 `json:"gpu_utilization"`
	// Makespan is the campaign's wall-clock span in virtual time.
	Makespan time.Duration `json:"makespan_ns"`
	// AggregateTaskTime is the sum of all task running phases — the
	// quantity the paper reports as "Time (h)".
	AggregateTaskTime time.Duration `json:"aggregate_task_time_ns"`
	// Phases breaks runtime overhead down as in Fig. 5's legend
	// (bootstrap / exec_setup / running).
	Phases map[string]time.Duration `json:"phases"`
	// CPUSeries and GPUSeries are the busy-resource step functions.
	CPUSeries []trace.Point `json:"cpu_series"`
	GPUSeries []trace.Point `json:"gpu_series"`
	// TotalCores and TotalGPUs record the aggregate capacity across the
	// campaign's pilots.
	TotalCores int `json:"total_cores"`
	TotalGPUs  int `json:"total_gpus"`
	// Pilots names the campaign's pilot partitions in submission order
	// (a single "pilot" for classic campaigns).
	Pilots []string `json:"pilots,omitempty"`
	// Policies records each pilot's resolved scheduling policy, parallel
	// to Pilots.
	Policies []string `json:"policies,omitempty"`
	// Recoveries records each pilot's resolved fault-recovery policy,
	// parallel to Pilots.
	Recoveries []string `json:"recoveries,omitempty"`
	// Steerings records each pilot's resolved elastic-steering
	// participation, parallel to Pilots ("none" on frozen partitions).
	Steerings []string `json:"steerings,omitempty"`
	// Steer is the campaign's elastic-steering policy ("none" when the
	// partitions stayed frozen).
	Steer string `json:"steer,omitempty"`
	// NodeTransfers counts the nodes the steering controller moved
	// between pilots mid-campaign (0 with steering off).
	NodeTransfers int `json:"node_transfers,omitempty"`
	// SteerVetoes counts the transfer proposals the controller rejected,
	// and SteerVetoReasons breaks them down by veto reason (nil when
	// nothing was vetoed).
	SteerVetoes      int            `json:"steer_vetoes,omitempty"`
	SteerVetoReasons map[string]int `json:"steer_veto_reasons,omitempty"`
	// CheckpointInterval echoes Config.CheckpointInterval so reports can
	// group preemption cells by checkpoint cadence (0 = checkpointing
	// off).
	CheckpointInterval time.Duration `json:"checkpoint_interval_ns,omitempty"`
	// WalltimeGrace echoes Config.WalltimeGrace: nonzero means walltime
	// expiry drained gracefully instead of killing outright.
	WalltimeGrace time.Duration `json:"walltime_grace_ns,omitempty"`
	// Faults carries the fault-injection accounting; nil when the
	// campaign ran without failure models.
	Faults *FaultStats `json:"faults,omitempty"`

	// Starting maps target → native (generation 0) metrics.
	Starting map[string]landscape.Metrics `json:"starting"`
	// FinalBest maps target → best accepted metrics over the campaign.
	FinalBest map[string]landscape.Metrics `json:"final_best"`
	// FinalDesigns maps target → the best accepted design's structure.
	FinalDesigns map[string]*protein.Structure `json:"final_designs"`
	// TaskRecords holds the per-task timeline (sorted by submission),
	// for Gantt-style inspection.
	TaskRecords []trace.TaskRecord `json:"task_records,omitempty"`
	// QueueSeries holds each pilot's queue-depth step function, parallel
	// to Pilots (nil entries for pilots that never queued).
	QueueSeries [][]trace.Point `json:"queue_series,omitempty"`
	// Telemetry carries the campaign's observability record — instants,
	// steering ticks, counters, and gauge series. Nil unless the campaign
	// ran with Config.Telemetry set.
	Telemetry *telemetry.Data `json:"telemetry,omitempty"`

	// Admission names the admission-control policy when this result is a
	// multi-tenant service run; empty for private-cluster campaigns.
	Admission string `json:"admission,omitempty"`
	// Tenants holds the per-tenant wait/slowdown record of a multi-tenant
	// service run, in arrival order. Nil for private-cluster campaigns.
	Tenants []TenantStat `json:"tenants,omitempty"`
}

// TenantStat is one tenant's service record on a shared cluster: when it
// arrived, how long admission control made it wait, and how much the
// shared fleet stretched it relative to running unqueued — the per-tenant
// rows behind Jain's fairness index.
type TenantStat struct {
	// Name is the tenant's campaign name.
	Name string `json:"name"`
	// Weight is the tenant's share weight under weighted-fair admission.
	Weight float64 `json:"weight,omitempty"`
	// Nodes is the node grant the tenant was admitted with.
	Nodes int `json:"nodes,omitempty"`
	// Arrived/Admitted/Finished are virtual-time offsets from service
	// start: when the tenant showed up, when admission control let it in,
	// and when its last pipeline drained.
	Arrived  time.Duration `json:"arrived_ns"`
	Admitted time.Duration `json:"admitted_ns"`
	Finished time.Duration `json:"finished_ns"`
	// Wait is Admitted − Arrived: the admission queue time.
	Wait time.Duration `json:"wait_ns"`
	// Runtime is Finished − Admitted: the tenant's own makespan.
	Runtime time.Duration `json:"runtime_ns"`
	// Slowdown is (Wait + Runtime) / Runtime ≥ 1 — the classic bounded
	// slowdown numerator over the tenant's own runtime.
	Slowdown float64 `json:"slowdown"`
	// Trajectories and Tasks summarize the tenant's scientific output.
	Trajectories int `json:"trajectories,omitempty"`
	Tasks        int `json:"tasks,omitempty"`
	// Reclaimed counts nodes the inter-campaign steering tick took from
	// this tenant; Granted counts nodes it gained after admission.
	Reclaimed int `json:"reclaimed,omitempty"`
	Granted   int `json:"granted,omitempty"`
}

// FaultStats is a campaign's fault-injection and recovery record — the
// raw material of the resilience report.
type FaultStats struct {
	// Spec echoes the campaign's failure models (its TaskFailProb is the
	// grid coordinate of a fault-sweep cell).
	Spec fault.Spec
	// Recovery summarizes the campaign's recovery policy set: the single
	// name when every pilot agrees, else names joined with "+".
	Recovery string
	// TaskFaults, NodeCrashKills, WalltimeKills, and PayloadFaults count
	// failed attempts by fault kind.
	TaskFaults     int
	NodeCrashKills int
	WalltimeKills  int
	PayloadFaults  int
	// NodeCrashes counts node-crash events across all pilots.
	NodeCrashes int
	// Evictions counts attempts preempted by checkpointed eviction —
	// steering drains, walltime drains, explicit EvictNode calls. An
	// eviction is a scheduling decision, not a failure, so it is tallied
	// separately from the fault-kind counters above.
	Evictions int
	// Resumes counts attempts that started from checkpointed progress
	// instead of from zero.
	Resumes int
	// Resubmissions counts attempts requeued by recovery policies.
	Resubmissions int
	// TerminalFailures counts attempts whose chain ended in failure.
	TerminalFailures int
	// RetriedTasks counts FAILED transitions the coordinator absorbed
	// because a resubmission was planned.
	RetriedTasks int
	// KilledPipelines counts pipelines destroyed by terminal failures.
	KilledPipelines int
	// AttemptsHistogram maps attempts-needed -> logical tasks whose
	// chain ended after exactly that many attempts.
	AttemptsHistogram map[int]int
	// DowntimeNodeSeconds is the total node downtime injected by crash
	// repair windows, correlated outages, and maintenance, in
	// node-seconds.
	DowntimeNodeSeconds float64
	// WastedCoreHours is allocation time consumed by attempts that did
	// not complete (failed or cancelled after placement), in core-hours.
	// Progress banked at a checkpoint and resumed by a later attempt is
	// excluded — it was not re-done.
	WastedCoreHours float64
	// PreemptedCoreHours is the share of WastedCoreHours lost to
	// checkpointed evictions: the post-checkpoint re-execution cost of
	// preemption, the number the preempt-sweep scenario races against
	// kill-and-restart.
	PreemptedCoreHours float64
	// PilotCrashes maps pilot name -> node crashes booked by that pilot's
	// injector. Crashes attribute to the node's owner at the instant of
	// the crash, so a node that crashes after being steered in counts
	// against the receiving pilot. Nil when no crashes occurred.
	PilotCrashes map[string]int
	// DomainCrashes maps failure-domain label -> node crashes in that
	// domain ("" collects unlabeled nodes). Nil without domain labels or
	// crashes.
	DomainCrashes map[string]int
	// DomainOutages counts whole-domain outage events across all pilots.
	DomainOutages int
	// MaintenanceWindows counts opened maintenance windows across all
	// pilots.
	MaintenanceWindows int
}

// MaxAttempts returns the deepest attempt chain observed.
func (f *FaultStats) MaxAttempts() int {
	max := 0
	for k := range f.AttemptsHistogram {
		if k > max {
			max = k
		}
	}
	return max
}

func (c *Coordinator) buildResult() *Result {
	approach := "CONT-V"
	if c.cfg.Pipeline.Adaptive {
		approach = "IM-RP"
	}
	res := &Result{
		Approach:          approach,
		Seed:              c.cfg.Seed,
		Trajectories:      c.trajectories,
		Pool:              c.pool,
		BasePipelines:     c.basePipelines,
		SubPipelines:      c.subPipelines,
		EarlyTerminated:   c.terminated,
		Evaluations:       c.evaluations,
		TaskCount:         c.tm.Count(),
		FailedTasks:       c.failedTasks,
		CPUUtilization:    c.rec.CPUUtilization(),
		GPUUtilization:    c.rec.GPUUtilization(),
		Makespan:          c.rec.Makespan(),
		AggregateTaskTime: c.rec.AggregateTaskTime(),
		Phases:            c.rec.Phases(),
		CPUSeries:         c.rec.CPUSeries(),
		GPUSeries:         c.rec.GPUSeries(),
		TotalCores:        c.rec.TotalCores(),
		TotalGPUs:         c.rec.TotalGPUs(),
		Starting:          make(map[string]landscape.Metrics),
		FinalBest:         make(map[string]landscape.Metrics),
		FinalDesigns:      c.bestDesign,
		TaskRecords:       c.rec.Tasks(),
	}
	for i, ps := range c.specs {
		res.Pilots = append(res.Pilots, ps.Name)
		res.Policies = append(res.Policies, c.pilots[i].Policy())
		res.Recoveries = append(res.Recoveries, c.pilots[i].Recovery())
		res.Steerings = append(res.Steerings, c.pilots[i].Steer())
	}
	res.Steer = steer.Default()
	if steer.Enabled(c.cfg.Steer) {
		res.Steer = c.cfg.Steer
	}
	res.CheckpointInterval = c.cfg.CheckpointInterval
	res.WalltimeGrace = c.cfg.WalltimeGrace
	if c.steerer != nil {
		res.NodeTransfers = c.steerer.Transfers()
		res.SteerVetoes = c.steerer.VetoCount()
		for _, v := range c.steerer.Vetoes() {
			if res.SteerVetoReasons == nil {
				res.SteerVetoReasons = make(map[string]int)
			}
			res.SteerVetoReasons[v.Reason]++
		}
	}
	for i := range c.specs {
		res.QueueSeries = append(res.QueueSeries, c.rec.QueueSeries(i))
	}
	if c.tel.Enabled() {
		res.Telemetry = c.tel.Data()
	}
	if c.cfg.faultEnabled() {
		res.Faults = c.buildFaultStats(res)
	}
	for _, tg := range c.targets {
		res.Targets = append(res.Targets, tg.Name)
		res.Starting[tg.Name] = tg.StartingMetrics()
		if best, ok := c.pool.Best(tg.Name); ok {
			res.FinalBest[tg.Name] = best
		}
	}
	return res
}

// buildFaultStats assembles the campaign's resilience record from the
// task manager's recovery tallies, the pilots' injector activity, and
// the per-attempt task records.
func (c *Coordinator) buildFaultStats(res *Result) *FaultStats {
	tl := c.tm.FaultTallies()
	fs := &FaultStats{
		Spec:              c.cfg.Fault,
		Recovery:          labelOf(res.Recoveries),
		TaskFaults:        tl.ByKind[fault.KindTask],
		NodeCrashKills:    tl.ByKind[fault.KindNodeCrash],
		WalltimeKills:     tl.ByKind[fault.KindWalltime],
		PayloadFaults:     tl.ByKind[fault.KindPayload],
		Evictions:         tl.ByKind[fault.KindPreempt],
		Resumes:           tl.Resumes,
		Resubmissions:     tl.Resubmitted,
		TerminalFailures:  tl.Terminal,
		RetriedTasks:      c.retriedTasks,
		KilledPipelines:   len(c.killed),
		AttemptsHistogram: tl.AttemptHist,
	}
	for i, p := range c.pilots {
		crashes, downtime := p.FaultCounts()
		fs.NodeCrashes += crashes
		fs.DowntimeNodeSeconds += downtime.Seconds()
		if crashes > 0 {
			if fs.PilotCrashes == nil {
				fs.PilotCrashes = make(map[string]int)
			}
			fs.PilotCrashes[c.specs[i].Name] += crashes
		}
		for dom, n := range p.FaultCountsByDomain() {
			if fs.DomainCrashes == nil {
				fs.DomainCrashes = make(map[string]int)
			}
			fs.DomainCrashes[dom] += n
		}
		outages, maints := p.DomainEventCounts()
		fs.DomainOutages += outages
		fs.MaintenanceWindows += maints
	}
	_, fs.WastedCoreHours, fs.PreemptedCoreHours = res.usefulWasted()
	return fs
}

// labelOf joins a per-pilot name list into a single label: the common
// name when all agree, else the names joined with "+".
func labelOf(names []string) string {
	if len(names) == 0 {
		return ""
	}
	for _, n := range names[1:] {
		if n != names[0] {
			return strings.Join(names, "+")
		}
	}
	return names[0]
}

// TrajectoryCount returns the number of concluded design cycles — the
// paper's "Trajectories" column.
func (r *Result) TrajectoryCount() int { return len(r.Trajectories) }

// CampaignTrace adapts the result into the telemetry exporter's view of
// one campaign — its pilots, task timeline, queue-depth series, and (when
// the campaign ran with telemetry on) its instants, ticks, and gauges.
func (r *Result) CampaignTrace(label string) telemetry.CampaignTrace {
	return telemetry.CampaignTrace{
		Label:       label,
		Pilots:      r.Pilots,
		Tasks:       r.TaskRecords,
		QueueSeries: r.QueueSeries,
		Data:        r.Telemetry,
	}
}

// CriticalPath runs the critical-path analysis over the campaign's task
// records.
func (r *Result) CriticalPath() telemetry.CriticalPath {
	return telemetry.ComputeCriticalPath(r.TaskRecords)
}

// usefulWasted splits the campaign's consumed allocation time
// (core-hours, setup through end, placed attempts only) into attempts
// that completed successfully and everything else — the one
// classification Goodput and FaultStats.WastedCoreHours both derive
// from. Checkpointed progress changes the ledger: an interrupted
// attempt's banked progress (TaskRecord.Saved) is work the resuming
// attempt never redoes, so it counts as useful; only the post-checkpoint
// remainder is wasted. preempted is the wasted share of attempts ended
// by eviction rather than failure — what the preempt-sweep scenario
// charges against evict-and-resume.
func (r *Result) usefulWasted() (useful, wasted, preempted float64) {
	for _, tr := range r.TaskRecords {
		if !tr.Placed {
			continue
		}
		ch := tr.EndedAt.Sub(tr.SetupAt).Hours() * float64(tr.Cores)
		if tr.State == pilot.StateDone.String() {
			useful += ch
			continue
		}
		saved := tr.Saved.Hours() * float64(tr.Cores)
		if saved > ch {
			saved = ch
		}
		useful += saved
		lost := ch - saved
		wasted += lost
		if tr.Fault == fault.KindPreempt.String() {
			preempted += lost
		}
	}
	return useful, wasted, preempted
}

// Goodput returns the fraction of consumed allocation time spent on
// attempts that completed successfully (checkpointed progress banked by
// interrupted attempts included): the resilience report's headline
// number. A campaign with nothing consumed reports 1.
func (r *Result) Goodput() float64 {
	useful, wasted, _ := r.usefulWasted()
	if useful+wasted == 0 {
		return 1
	}
	return useful / (useful + wasted)
}

// RecoveryLabel summarizes the campaign's fault-recovery policy set,
// mirroring PolicyLabel.
func (r *Result) RecoveryLabel() string { return labelOf(r.Recoveries) }

// SteerLabel returns the campaign's elastic-steering policy name — the
// grouping key of the elastic report ("none" for the frozen split).
func (r *Result) SteerLabel() string {
	if r.Steer == "" {
		return "none"
	}
	return r.Steer
}

// MetricSeries extracts one metric from a metrics set.
type MetricSeries func(landscape.Metrics) float64

// PLDDTOf, PTMOf and IPAEOf are the three metric extractors used by the
// figures.
func PLDDTOf(m landscape.Metrics) float64 { return m.PLDDT }
func PTMOf(m landscape.Metrics) float64   { return m.PTM }
func IPAEOf(m landscape.Metrics) float64  { return m.IPAE }

// IterationSummary returns median and stddev of a metric over iteration
// it's pool (1-based) — a figure bar plus its error bar (the figures show
// half a standard deviation).
func (r *Result) IterationSummary(it int, f MetricSeries) (median, std float64) {
	ms := r.Pool.IterationMetrics(it)
	vals := make([]float64, 0, len(ms))
	for _, m := range ms {
		vals = append(vals, f(m))
	}
	return stats.Median(vals), stats.StdDev(vals)
}

// Iterations returns the highest iteration index with recorded results.
func (r *Result) Iterations() int {
	max := 0
	for _, tr := range r.Trajectories {
		if tr.Generation > max {
			max = tr.Generation
		}
	}
	return max
}

// medianOver maps f over a metrics map and returns the median.
func medianOver(ms map[string]landscape.Metrics, f MetricSeries) float64 {
	vals := make([]float64, 0, len(ms))
	for _, m := range ms {
		vals = append(vals, f(m))
	}
	return stats.Median(vals)
}

// NetDelta returns the campaign's net change of a metric: median over
// targets of the final best minus median of the starting designs —
// Table I's "Net Δ" columns.
func (r *Result) NetDelta(f MetricSeries) float64 {
	return medianOver(r.FinalBest, f) - medianOver(r.Starting, f)
}

// PolicyLabel summarizes the campaign's scheduling policy set: the single
// policy name when every pilot agrees (the common case), otherwise the
// per-pilot names joined with "+".
func (r *Result) PolicyLabel() string { return labelOf(r.Policies) }

// QueueWait returns the mean and max task queue wait — submission to the
// start of exec setup — over tasks that actually reached an allocation.
// This is the scheduling-policy quantity: FIFO holds small tasks behind a
// wide head and inflates it, backfill-style policies deflate it.
func (r *Result) QueueWait() (mean, max time.Duration) {
	var total time.Duration
	n := 0
	for _, tr := range r.TaskRecords {
		if !tr.Placed {
			continue // never left the queue (failed fast or cancelled while queued)
		}
		w := tr.Wait()
		total += w
		if w > max {
			max = w
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return total / time.Duration(n), max
}

// StartingMedian returns the median starting value of a metric.
func (r *Result) StartingMedian(f MetricSeries) float64 {
	return medianOver(r.Starting, f)
}

// FinalMedian returns the median final-best value of a metric.
func (r *Result) FinalMedian(f MetricSeries) float64 {
	return medianOver(r.FinalBest, f)
}
