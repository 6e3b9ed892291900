package campaign

import (
	"cmp"
	"fmt"
	"io"
	"strconv"
	"time"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/report"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/tenancy"
	"impress/internal/workload"
)

// A sweep declares a comparison scenario as data: Seeds consecutive
// seeds × (an optional baseline + the cross product of its axes). Each
// seed builds its baseline first, then one campaign per cell with the
// outer axis varying slowest, all named prefix/label/seedN. The
// workload of a seed is the control variable; the axes are the
// treatments; the grid is the report.
type sweep struct {
	name, description string
	prefix            string
	// targets and seeds replace zero Targets and Seeds (0 keeps the
	// Params defaults).
	targets, seeds int
	// check validates params no axis covers.
	check func(p Params) error
	// baseline resets the treatments for each seed's baseline campaign;
	// nil means the sweep has no separate baseline.
	baseline func(p *Params)
	axes     []expander
	// label names a cell in its campaign name.
	label func(cell Params) string
	// at prepares one seed's workload and machine and returns the
	// campaign builder for its cells.
	at func(seed uint64, p Params) (cellFunc, error)
	// grid is the sweep's report; csv, when set, replaces its CSV.
	grid report.Grid
	csv  func(io.Writer, []*core.Result) error
}

// A cellFunc fills in the campaign of one cell (base marks the
// baseline); the sweep has set its name and seed.
type cellFunc func(c *Campaign, cell Params, base bool) error

// An expander sets one axis' Params field to each of its levels.
type expander interface {
	expand(name string, p Params, cells []Params) ([]Params, error)
}

// An axis races one Params field over its levels. A user-set value of
// the field rejects the build, because racing the field is the sweep's
// point — or, when the axis narrows, becomes its only level.
type axis[T any] struct {
	field  string             // the Params field, for errors
	at     func(p *Params) *T // addresses the field
	levels func(p Params) []T // the race, in campaign order
	set    func(v T) bool     // reports a user-set value
	// narrows makes a user-set value the axis' only level.
	narrows bool
}

// expand crosses cells with the axis' levels, cells varying slowest.
func (a axis[T]) expand(name string, p Params, cells []Params) ([]Params, error) {
	levels := a.levels(p)
	if v := *a.at(&p); a.set(v) {
		if !a.narrows {
			return nil, fmt.Errorf("campaign: %s races %s over %v; a fixed %s=%v does not apply", name, a.field, levels, a.field, v)
		}
		levels = []T{v}
	}
	out := make([]Params, 0, len(cells)*len(levels))
	for _, c := range cells {
		for _, v := range levels {
			*a.at(&c) = v
			out = append(out, c)
		}
	}
	return out, nil
}

func (s sweep) scenario() Scenario {
	csv := s.grid.CSV
	if s.csv != nil {
		csv = s.csv
	}
	return Scenario{Name: s.name, Description: s.description, Build: s.build, Report: s.grid.Table, ReportCSV: csv}
}

func (s sweep) build(p Params) ([]Campaign, error) {
	if p.Targets <= 0 {
		p.Targets = s.targets
	}
	if p.Seeds <= 0 {
		p.Seeds = s.seeds
	}
	p = p.withDefaults()
	cells := []Params{p}
	for _, ax := range s.axes {
		var err error
		if cells, err = ax.expand(s.name, p, cells); err != nil {
			return nil, err
		}
	}
	if s.check != nil {
		if err := s.check(p); err != nil {
			return nil, err
		}
	}
	base, per := p, len(cells)
	if s.baseline != nil {
		s.baseline(&base)
		per++
	}
	all := make([]Campaign, 0, p.Seeds*per)
	for i := 0; i < p.Seeds; i++ {
		seed := p.Seed + uint64(i)
		mk, err := s.at(seed, p)
		if err != nil {
			return nil, err
		}
		add := func(label string, cell Params, isBase bool) error {
			name := s.prefix + "/" + label + "/seed" + strconv.FormatUint(seed, 10)
			all = append(all, Campaign{Name: name, Seed: seed})
			return mk(&all[len(all)-1], cell, isBase)
		}
		if s.baseline != nil {
			if err := add("baseline", base, true); err != nil {
				return nil, err
			}
		}
		for _, cell := range cells {
			if err := add(s.label(cell), cell, false); err != nil {
				return nil, err
			}
		}
	}
	return all, nil
}

// perSeed concatenates at's campaigns over Seeds consecutive seeds from
// Seed.
func perSeed(p Params, at func(seed uint64) ([]Campaign, error)) ([]Campaign, error) {
	var all []Campaign
	for i := 0; i < p.Seeds; i++ {
		cs, err := at(p.Seed + uint64(i))
		if err != nil {
			return nil, err
		}
		all = append(all, cs...)
	}
	return all, nil
}

// names lists a policy registry's names as axis levels.
func names(f func() []string) func(Params) []string {
	return func(Params) []string { return f() }
}

// fixed lists constant axis levels.
func fixed[T any](vs ...T) func(Params) []T {
	return func(Params) []T { return vs }
}

func nonEmpty(s string) bool        { return s != "" }
func positive(d time.Duration) bool { return d > 0 }
func steerField(p *Params) *string  { return &p.Steer }

// frozenFaultFree resets a baseline to no faults, no recovery policy
// and the frozen split.
func frozenFaultFree(p *Params) {
	p.Fault, p.Recovery, p.Steer = fault.Spec{}, "", "none"
}

var (
	recoveryAxis = axis[string]{field: "Recovery", at: func(p *Params) *string { return &p.Recovery },
		levels: names(fault.Names), set: nonEmpty}
	// An explicit "none" steering policy is the frozen default, a cell of
	// every steering race; only a real policy conflicts.
	steerAxis = axis[string]{field: "Steer", at: steerField, levels: names(steer.Names), set: steer.Enabled}
)

var sweeps = []sweep{{
	name:        "policy-compare",
	description: "races every scheduling policy (fifo, backfill, bestfit, worstfit, largest) as IM-RP campaigns over a Seeds-wide seed sweep of the four PDZ domains",
	prefix:      "policy",
	axes: []expander{axis[string]{field: "Policy", at: func(p *Params) *string { return &p.Policy },
		levels: names(sched.Names), set: nonEmpty}},
	label: func(c Params) string { return c.Policy },
	at:    namedAt,
	grid:  report.PolicyCompare,
}, {
	name: "elastic-screen",
	description: "races every elastic steering policy (none, greedy, hysteresis) as IM-RP screen campaigns on a " +
		"4-node split CPU/GPU placement over a Seeds-wide seed grid, against the frozen split, " +
		"and reports makespan speedup / utilization / node-transfer counts",
	prefix: "elastic",
	// Every seed runs once per steering policy on a 4× machine, so the
	// screen is a quarter of the paper's 70 complexes and the seed grid
	// half the usual sweep.
	targets: 18, seeds: 4,
	axes:  []expander{steerAxis},
	label: func(c Params) string { return c.Steer },
	at:    elasticAt,
	grid:  report.Elastic,
}, {
	name: "fault-sweep",
	description: "races every fault-recovery policy (none, retry, backoff, elsewhere) across a failure-rate grid " +
		"and a Seeds-wide seed sweep, against fault-free baselines, and reports goodput / wasted work / makespan inflation",
	prefix:   "fault",
	baseline: func(p *Params) { p.Fault = fault.Spec{} },
	axes: []expander{axis[float64]{field: "Fault.TaskFailProb",
		at: func(p *Params) *float64 { return &p.Fault.TaskFailProb },
		levels: func(p Params) []float64 {
			if len(p.FaultRates) > 0 {
				return p.FaultRates
			}
			return []float64{0.05, 0.15, 0.30}
		},
		set: func(r float64) bool { return r > 0 }, narrows: true,
	}, recoveryAxis},
	label: func(c Params) string { return fmt.Sprintf("%s/p%.2f", c.Recovery, c.Fault.TaskFailProb) },
	at:    namedAt,
	grid:  report.Resilience,
}, {
	name: "chaos-sweep",
	description: "races every fault-recovery policy × every steering policy on a small labeled fleet under a fixed " +
		"correlated-failure mix (node crashes, whole-rack outages, same-rack cascades, a recurring maintenance window), " +
		"against a fault-free frozen baseline, and reports goodput / makespan inflation / crash+outage counts",
	prefix: "chaos",
	// The grid is recovery × steering wide, so cells stay small.
	targets: 8, seeds: 2,
	baseline: frozenFaultFree,
	axes:     []expander{recoveryAxis, steerAxis},
	label:    func(c Params) string { return c.Recovery + "+" + c.Steer },
	at:       chaosAt,
	grid:     report.Chaos,
}, {
	name: "preempt-sweep",
	description: "races checkpoint cadences × (hard kill vs graceful drain) × (frozen vs preemptive steering) on a " +
		"three-pilot machine whose first CPU pilot hits a fault-model walltime mid-screen, against a fault-free " +
		"baseline, and reports goodput / makespan inflation / wasted vs preempted core-hours / evictions / resumes",
	prefix: "preempt",
	// The grid is interval × mode × steering wide, so cells stay small.
	targets: 8, seeds: 2,
	baseline: func(p *Params) {
		frozenFaultFree(p)
		p.CheckpointInterval, p.WalltimeGrace = 0, 0
	},
	axes: []expander{
		// Checkpointing off (attempts restart from zero), and two
		// cadences bracketing the typical stage duration.
		axis[time.Duration]{field: "CheckpointInterval", at: func(p *Params) *time.Duration { return &p.CheckpointInterval },
			levels: fixed[time.Duration](0, 15*time.Minute, time.Hour), set: positive},
		// Hard kill vs graceful drain at the walltime.
		axis[time.Duration]{field: "WalltimeGrace", at: func(p *Params) *time.Duration { return &p.WalltimeGrace },
			levels: fixed[time.Duration](0, preemptGrace), set: positive},
		axis[string]{field: "Steer", at: steerField,
			levels: fixed("none", "preempt"), set: steer.Enabled},
	},
	label: func(c Params) string {
		mode := "kill"
		if c.WalltimeGrace > 0 {
			mode = "drain"
		}
		return fmt.Sprintf("%s+%s/ck%s", mode, c.Steer, report.DurLabel(c.CheckpointInterval))
	},
	at:   preemptAt,
	grid: report.Preemption,
}, {
	name: "tenant-sweep",
	description: "races every admission-control policy (fcfs-admit, quota, weighted-fair) over Tenants arriving " +
		"screen campaigns contending for one shared pool with fairshare quota reclaim, and reports Jain's " +
		"fairness index over per-tenant slowdowns against aggregate makespan",
	prefix: "tenants",
	// The grid is admission × seeds wide and every cell runs Tenants
	// whole campaigns, so cells stay small.
	targets: 16, seeds: 2,
	check: func(p Params) error {
		if p.SplitPilots {
			return fmt.Errorf("campaign: tenant-sweep places each tenant on a single leased pilot; the split placement does not apply")
		}
		if err := tenancy.Validate(p.Admission); err != nil {
			return err
		}
		if err := steer.ValidateTenant(p.Reclaim); err != nil {
			return err
		}
		if p.Arrival != "" {
			return fleet.ValidateArrival(p.Arrival)
		}
		return nil
	},
	axes: []expander{axis[string]{field: "Admission", at: func(p *Params) *string { return &p.Admission },
		levels: names(tenancy.Names), set: nonEmpty, narrows: true}},
	label: func(c Params) string { return c.Admission },
	at:    tenantAt,
	grid:  report.Fairness,
	csv:   report.FairnessCSV,
}}

// namedAt runs every cell as an IM-RP campaign over the four named PDZ
// domains.
func namedAt(seed uint64, _ Params) (cellFunc, error) {
	targets, err := workload.NamedTargets(seed, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return func(c *Campaign, cell Params, _ bool) error {
		cfg, err := applyExecution(core.AdaptiveConfig(seed), cell)
		c.Targets, c.Config = targets, cfg
		return err
	}, nil
}

// elasticNodes is the elastic-screen machine size: four Amarel nodes,
// split into a 4-node CPU partition and a 4-node GPU partition, so the
// steering layer has room to move nodes (a single-node split leaves
// nothing transferable once each pilot keeps its floor of one).
const elasticNodes = 4

// elasticAt runs every cell as an IM-RP screen on the 4-node split
// placement.
func elasticAt(seed uint64, p Params) (cellFunc, error) {
	targets, err := workload.MinedScreen(seed, p.Targets, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return func(c *Campaign, cell Params, _ bool) error {
		cell.SplitPilots = true
		cfg := core.AdaptiveConfig(seed)
		cfg.Machine = cluster.AmarelCluster(elasticNodes)
		cfg, err := applyExecution(cfg, cell)
		c.Targets, c.Config = targets, cfg
		return err
	}, nil
}

// The chaos-sweep defaults: a small labeled fleet spread over four
// failure domains (two CPU racks, two GPU racks) and a correlated
// failure mix that exercises every domain model at once — per-node
// crashes, whole-rack outages, same-rack cascades, and a recurring
// maintenance window on rackA. The CPU nodes are deliberately lean
// (8 cores fits the largest CPU stage exactly) so losing a rack builds
// real queue pressure and the steering dimension of the grid has
// eligible GPU→CPU transfers to race.
const chaosFleetSpec = "cpuA:8c0g32m*3@rackA+cpuB:8c0g32m*3@rackB+gpuC:8c4g32m*2@rackC+gpuD:8c4g32m*2@rackD"

// chaosFaultSpec is the failure mix every chaos-sweep cell races under
// unless the params set one.
func chaosFaultSpec() fault.Spec {
	return fault.Spec{
		TaskFailProb: 0.02,
		NodeMTBF:     12 * time.Hour,
		Domains: fault.DomainSpec{
			OutageMTBF:     24 * time.Hour,
			OutageDuration: 45 * time.Minute,
			CascadeProb:    0.25,
			Maintenance: []fault.Maintenance{
				{Domain: "rackA", Start: 8 * time.Hour, Duration: 45 * time.Minute, Every: 24 * time.Hour},
			},
		},
	}
}

// chaosAt runs every cell as an IM-RP screen on the labeled fleet (Fleet,
// or the chaos default) under the correlated failure mix.
func chaosAt(seed uint64, p Params) (cellFunc, error) {
	targets, err := workload.MinedScreen(seed, p.Targets, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pilots, err := FleetPilots(cmp.Or(p.Fleet, chaosFleetSpec), seed)
	if err != nil {
		return nil, err
	}
	return func(c *Campaign, cell Params, base bool) error {
		if !base && !cell.Fault.Enabled() {
			cell.Fault = chaosFaultSpec()
		}
		cfg, err := onPilots(core.AdaptiveConfig(seed), cell, pilots)
		c.Targets, c.Config = targets, cfg
		return err
	}, nil
}

// The preempt-sweep defaults: a 4-node Amarel machine split into two
// CPU pilots and one GPU pilot, with a fault-model walltime bounding
// only the first CPU pilot — the second CPU pilot is the survivor the
// expiring pilot's work must land on.
const (
	preemptNodes    = 4
	preemptWalltime = 2 * time.Hour
	preemptGrace    = 45 * time.Minute
)

// preemptAt runs every cell as an IM-RP screen on the three-pilot
// machine: the CPU partition halved into two pilots, so one can expire
// while the other absorbs its drained work, plus the standard GPU
// pilot. Every cell but the baseline races the same walltime bounding
// pilot-cpu-a, recovering elsewhere unless the params set a policy.
func preemptAt(seed uint64, p Params) (cellFunc, error) {
	targets, err := workload.MinedScreen(seed, p.Targets, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	machine := cluster.AmarelCluster(preemptNodes)
	cpu, gpu, err := cluster.SplitCPUGPU(machine, 2*machine.GPUsPerNode, machine.MemGBPerNode/4)
	if err != nil {
		return nil, err
	}
	if cpu.Nodes < 2 {
		return nil, fmt.Errorf("campaign: preempt-sweep needs >= 2 CPU nodes to split into an expiring pilot and a survivor, got %d", cpu.Nodes)
	}
	cpuA, cpuB := cpu, cpu
	cpuA.Nodes = cpu.Nodes / 2
	cpuB.Nodes = cpu.Nodes - cpuA.Nodes
	return func(c *Campaign, cell Params, base bool) error {
		ps := []core.PilotSpec{
			{Name: "pilot-cpu-a", Machine: cpuA, Serves: []core.ResourceClass{core.ClassCPU}},
			{Name: "pilot-cpu-b", Machine: cpuB, Serves: []core.ResourceClass{core.ClassCPU}},
			{Name: "pilot-gpu", Machine: gpu, Serves: []core.ResourceClass{core.ClassGPU}},
		}
		if !base {
			ps[0].Fault = &fault.Spec{Walltime: preemptWalltime}
			cell.Recovery = cmp.Or(cell.Recovery, "elsewhere")
		}
		cfg := core.AdaptiveConfig(seed)
		cfg.Machine = machine
		cfg, err := onPilots(cfg, cell, ps)
		c.Targets, c.Config = targets, cfg
		return err
	}, nil
}

// tenantAt runs every cell as one multi-tenant service: Tenants arriving
// screen campaigns contending for one shared pool. Every cell sees the
// identical arrivals, demands, weights and workload seeds.
func tenantAt(seed uint64, p Params) (cellFunc, error) {
	poolNodes := p.Nodes
	if poolNodes <= 1 {
		poolNodes = 12
	}
	machine := cluster.AmarelCluster(poolNodes)
	var caps []cluster.NodeCapacity
	if p.Fleet != "" {
		ts, err := fleet.ParseSpec(p.Fleet)
		if err != nil {
			return nil, err
		}
		if caps, err = fleet.Generate(seed, ts); err != nil {
			return nil, err
		}
		machine = fleet.SpecFor(fmt.Sprintf("fleet%d", seed), caps)
	}
	span := p.ArrivalSpan
	if span <= 0 {
		span = 12 * time.Hour
	}
	tenants := p.Tenants
	perTenant := (p.Targets + tenants - 1) / tenants
	arrival, reclaim := cmp.Or(p.Arrival, fleet.ArrivalWave), cmp.Or(p.Reclaim, "fairshare")
	return func(c *Campaign, cell Params, _ bool) error {
		spec := tenancy.Spec{Config: tenancy.Config{
			Machine:   machine,
			Nodes:     caps,
			Seed:      seed,
			Arrival:   arrival,
			Span:      span,
			Admission: cell.Admission,
			Reclaim:   reclaim,
		}}
		for i := 0; i < tenants; i++ {
			tseed := seed + uint64(i)
			cfg, err := applyExecution(core.AdaptiveConfig(tseed), cell)
			if err != nil {
				return err
			}
			if cfg.CheckpointInterval == 0 {
				// Reclaim drains nodes through checkpoint/evict/resume;
				// a default cadence keeps the preempted remainder small.
				cfg.CheckpointInterval = 30 * time.Minute
			}
			spec.Tenants = append(spec.Tenants, tenancy.TenantSpec{
				Name:        fmt.Sprintf("t%d", i),
				Seed:        tseed,
				Weight:      float64(1 + i%3),
				Nodes:       2 + i%3,
				TargetCount: perTenant,
				Config:      cfg,
			})
		}
		c.Tenancy = &spec
		return nil
	}, nil
}
