package campaign

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"time"

	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/workload"
)

// Params parameterizes scenario construction. The zero value is usable:
// scenarios substitute their documented defaults for zero counts (seed 0
// is a valid seed and is used as given). The sweep scenarios race some
// fields as axes (see sweeps): a user-set raced field fails the build,
// except that Fault.TaskFailProb and Admission narrow their axis to the
// one value.
type Params struct {
	// Seed is the base campaign seed.
	Seed uint64
	// Seeds is the sweep width for multi-seed scenarios (default 8).
	Seeds int
	// Targets is the screen width for screen scenarios (default 70).
	Targets int
	// SplitPilots places every campaign on the heterogeneous CPU/GPU
	// pilot pair instead of the single shared pilot.
	SplitPilots bool
	// Nodes scales every campaign's machine to that many Amarel nodes
	// (0 or 1 keeps each scenario's own machine — the paper's single
	// node, or elastic-screen's 4). Steering needs >= 2 so partitions
	// have something to transfer.
	Nodes int
	// Policy sets the agent scheduling policy for every campaign
	// (internal/sched name; empty keeps each protocol's default).
	Policy string
	// Fault declares failure models injected into every campaign
	// (internal/fault.Spec; the zero value injects nothing).
	Fault fault.Spec
	// Recovery sets the fault-recovery policy for every campaign
	// (internal/fault name; empty keeps "none").
	Recovery string
	// FaultRates is the failure-rate grid for the fault-sweep scenario
	// (default 0.05, 0.15, 0.30).
	FaultRates []float64
	// Steer sets the elastic-steering policy for every campaign
	// (internal/steer name; empty keeps partitions frozen). Steering
	// needs a multi-pilot placement, so it is normally combined with
	// SplitPilots.
	Steer string
	// Fleet is a node-template spec (internal/fleet syntax, e.g.
	// "cpu:28c0g128m*900+gpu:8c4g32m*100@rackB", with optional @domain
	// failure-domain labels) for scenarios that run on a generated
	// heterogeneous fleet; empty keeps each scenario's default. The
	// kilo-screen and chaos-sweep scenarios consume it — like Targets
	// for pair, other scenarios ignore it.
	Fleet string
	// Telemetry turns the observability recorder on in every campaign:
	// instants, steering ticks, and gauge series land in each Result's
	// Telemetry field (the -chrome-trace exporter's raw material).
	// Recording never alters virtual-time behavior.
	Telemetry bool
	// CheckpointInterval sets the checkpoint cadence for evict-and-resume
	// in every campaign (0 keeps checkpointing off).
	CheckpointInterval time.Duration
	// WalltimeGrace sets the graceful drain window at fault-model
	// walltime expiry in every campaign (0 keeps the hard kill).
	WalltimeGrace time.Duration
	// Tenants is the number of arriving campaigns in the tenant-sweep
	// scenario (default 8). Other scenarios ignore it.
	Tenants int
	// Arrival names the tenant arrival process for tenant-sweep
	// (internal/fleet kind: instant, linear, exponential, wave; empty
	// keeps wave).
	Arrival string
	// ArrivalSpan is the tenant arrival window for tenant-sweep
	// (default 12h; ignored for instant arrivals).
	ArrivalSpan time.Duration
	// Admission restricts tenant-sweep to a single admission-control
	// policy (internal/tenancy name); empty races all of them.
	Admission string
	// Reclaim names the inter-campaign steering policy for tenant-sweep
	// (internal/steer tenant name; empty keeps fairshare, "none"
	// freezes every admission grant for life).
	Reclaim string
}

func (p Params) withDefaults() Params {
	if p.Seeds <= 0 {
		p.Seeds = 8
	}
	if p.Targets <= 0 {
		p.Targets = 70
	}
	if p.Tenants <= 0 {
		p.Tenants = 8
	}
	return p
}

// Scenario declares a family of campaigns as data: a name, a
// description, and a builder from Params to concrete Campaign values.
// New workloads register a Scenario instead of writing a new main().
type Scenario struct {
	Name        string
	Description string
	Build       func(p Params) ([]Campaign, error)
	// Report, when set, renders a scenario-level summary over the
	// completed results of one run (e.g. the policy-compare table).
	// Nil means the scenario has no cross-campaign report.
	Report func(results []*core.Result) string
	// ReportCSV, when set, writes the scenario's per-campaign report
	// rows as CSV — the machine-readable companion of Report.
	ReportCSV func(w io.Writer, results []*core.Result) error
}

var registry = struct {
	mu     sync.Mutex
	byName map[string]Scenario
}{byName: make(map[string]Scenario)}

// Register adds a scenario to the global registry. Re-registering a name
// is an error so two workloads cannot silently shadow each other.
func Register(s Scenario) error {
	if s.Name == "" || s.Build == nil {
		return fmt.Errorf("campaign: scenario needs a name and a builder")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		return fmt.Errorf("campaign: scenario %q already registered", s.Name)
	}
	registry.byName[s.Name] = s
	return nil
}

// Lookup returns a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s, ok := registry.byName[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return slices.Sorted(maps.Keys(registry.byName))
}

// Scenarios returns all registered scenarios, sorted by name.
func Scenarios() []Scenario {
	names := Names()
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		s, _ := Lookup(n)
		out = append(out, s)
	}
	return out
}

// Build constructs the campaigns of a named scenario.
func Build(name string, p Params) ([]Campaign, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown scenario %q (known: %v)", name, Names())
	}
	return s.Build(p)
}

// applyExecution switches a config to the split CPU/GPU pilot pair, a
// non-default scheduling policy, and/or the fault/recovery configuration
// when the scenario params request them.
func applyExecution(cfg core.Config, p Params) (core.Config, error) {
	if p.Nodes > 1 {
		// Scale the machine before any split derives partitions from it.
		cfg.Machine = cluster.AmarelCluster(p.Nodes)
	}
	if p.SplitPilots {
		pilots, err := core.SplitPilots(cfg.Machine)
		if err != nil {
			return cfg, err
		}
		cfg.Pilots = pilots
	}
	if p.Policy != "" {
		if err := sched.Validate(p.Policy); err != nil {
			return cfg, err
		}
		cfg.Policy = p.Policy
	}
	if p.Fault.Enabled() {
		if err := p.Fault.Validate(); err != nil {
			return cfg, err
		}
		cfg.Fault = p.Fault
	}
	if p.Recovery != "" {
		if err := fault.Validate(p.Recovery); err != nil {
			return cfg, err
		}
		cfg.Recovery = p.Recovery
	}
	if p.Steer != "" {
		if err := steer.Validate(p.Steer); err != nil {
			return cfg, err
		}
		cfg.Steer = p.Steer
	}
	if p.Telemetry {
		cfg.Telemetry = true
	}
	if p.CheckpointInterval > 0 {
		cfg.CheckpointInterval = p.CheckpointInterval
	}
	if p.WalltimeGrace > 0 {
		cfg.WalltimeGrace = p.WalltimeGrace
	}
	return cfg, nil
}

// pairAt builds the paper's CONT-V + IM-RP pair over the four named PDZ
// domains at one seed.
func pairAt(seed uint64, p Params) ([]Campaign, error) {
	targets, err := workload.NamedTargets(seed, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ctrlCfg, err := applyExecution(core.ControlConfig(seed), p)
	if err != nil {
		return nil, err
	}
	adptCfg, err := applyExecution(core.AdaptiveConfig(seed), p)
	if err != nil {
		return nil, err
	}
	return []Campaign{
		{Name: fmt.Sprintf("contv/seed%d", seed), Seed: seed, Targets: targets, Config: ctrlCfg, Control: true},
		{Name: fmt.Sprintf("imrp/seed%d", seed), Seed: seed, Targets: targets, Config: adptCfg},
	}, nil
}

// screenAt builds one IM-RP campaign over n PDB-mined complexes.
func screenAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg, err := applyExecution(core.AdaptiveConfig(seed), p)
	if err != nil {
		return nil, err
	}
	return []Campaign{{
		Name:    fmt.Sprintf("screen%d/seed%d", n, seed),
		Seed:    seed,
		Targets: targets,
		Config:  cfg,
	}}, nil
}

// FleetPilots generates a seed-deterministic heterogeneous fleet from a
// template spec (internal/fleet syntax) and splits it into the standard
// two-pilot placement: a CPU pilot holding every GPU-less node and a GPU
// pilot holding the rest, each with its explicit node capacities. The
// same (spec, seed) pair yields the same pilots on every run.
func FleetPilots(spec string, seed uint64) ([]core.PilotSpec, error) {
	ts, err := fleet.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	caps, err := fleet.Generate(seed, ts)
	if err != nil {
		return nil, err
	}
	var cpu, gpu []cluster.NodeCapacity
	for _, nc := range caps {
		if nc.GPUs > 0 {
			gpu = append(gpu, nc)
		} else {
			cpu = append(cpu, nc)
		}
	}
	if len(cpu) == 0 || len(gpu) == 0 {
		return nil, fmt.Errorf("campaign: fleet %q needs both CPU and GPU nodes for the split placement", spec)
	}
	return []core.PilotSpec{
		{Name: "pilot-cpu", Machine: fleet.SpecFor("fleet-cpu", cpu), Nodes: cpu, Serves: []core.ResourceClass{core.ClassCPU}},
		{Name: "pilot-gpu", Machine: fleet.SpecFor("fleet-gpu", gpu), Nodes: gpu, Serves: []core.ResourceClass{core.ClassGPU}},
	}, nil
}

// The kilo-screen defaults: a 1000-node fleet with a deliberately lean
// CPU rack — four nodes of 8 cores, each fitting the largest CPU stage
// exactly — and a GPU rack carrying the fleet to the kilo floor. The
// tight CPU/target ratio means the CPU pilot starves under any real
// screen, so steering has eligible GPU→CPU transfers and the indexed
// allocation ledger is exercised through every mutation path
// (allocate/release/crash/repair/transfer) at the scale it exists for.
const (
	kiloFleetSpec = "cpu:8c0g32m*4+gpu:8c4g32m*996"
	kiloMinNodes  = 1000
	kiloTargets   = 128
)

// kiloScreenAt builds one IM-RP screen campaign on a generated kilo-node
// fleet.
func kiloScreenAt(seed uint64, n int, p Params) ([]Campaign, error) {
	targets, err := workload.MinedScreen(seed, n, workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	spec := cmp.Or(p.Fleet, kiloFleetSpec)
	pilots, err := FleetPilots(spec, seed)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ps := range pilots {
		total += len(ps.Nodes)
	}
	if total < kiloMinNodes {
		return nil, fmt.Errorf("campaign: kilo-screen needs a fleet of >= %d nodes, got %d from %q", kiloMinNodes, total, spec)
	}
	cfg, err := onPilots(core.AdaptiveConfig(seed), p, pilots)
	if err != nil {
		return nil, err
	}
	return []Campaign{{
		Name:    fmt.Sprintf("kilo%d/seed%d", total, seed),
		Seed:    seed,
		Targets: targets,
		Config:  cfg,
	}}, nil
}

// onPilots applies p to cfg on a placement the scenario owns: the
// pilots replace cfg's, so the Nodes and SplitPilots params do not
// apply.
func onPilots(cfg core.Config, p Params, pilots []core.PilotSpec) (core.Config, error) {
	p.Nodes, p.SplitPilots = 0, false
	cfg, err := applyExecution(cfg, p)
	cfg.Pilots = pilots
	return cfg, err
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register(Scenario{
		Name:        "pair",
		Description: "CONT-V vs IM-RP over the paper's four PDZ domains (Table I workload)",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults()
			return pairAt(p.Seed, p)
		},
	}))
	must(Register(Scenario{
		Name:        "sweep",
		Description: "the pair comparison replicated across Seeds consecutive seeds",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults()
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return pairAt(seed, p) })
		},
	}))
	must(Register(Scenario{
		Name:        "screen",
		Description: "one IM-RP campaign over Targets PDB-mined PDZ-peptide complexes (Fig. 3 workload)",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults()
			return screenAt(p.Seed, p.Targets, p)
		},
	}))
	must(Register(Scenario{
		Name:        "stress",
		Description: "multi-target stress test: Seeds independent screen campaigns of Targets complexes each",
		Build: func(p Params) ([]Campaign, error) {
			p = p.withDefaults()
			return perSeed(p, func(seed uint64) ([]Campaign, error) { return screenAt(seed, p.Targets, p) })
		},
	}))
	must(Register(Scenario{
		Name: "mega-screen",
		Description: "one IM-RP campaign over at least 128 PDB-mined complexes on the split CPU/GPU pilot pair — " +
			"the perf-harness workload behind BenchmarkMegaScreen (smaller Targets values are raised to 128)",
		Build: func(p Params) ([]Campaign, error) {
			// The floor defines the scenario: "mega" means the simulator
			// is driven well past the paper's 70-complex screen. Explicit
			// larger Targets values pass through.
			if p.Targets < 128 {
				p.Targets = 128
			}
			p.SplitPilots = true
			p = p.withDefaults()
			return screenAt(p.Seed, p.Targets, p)
		},
	}))
	must(Register(Scenario{
		Name: "kilo-screen",
		Description: "one IM-RP screen campaign on a generated heterogeneous fleet of at least 1000 nodes " +
			"(Fleet template spec, default 900 CPU + 100 GPU nodes) with faults and steering on by default — " +
			"the kilo-node workload behind BenchmarkKiloScreen",
		Build: func(p Params) ([]Campaign, error) {
			// "Kilo" is about the fleet, not the screen: the node floor is
			// enforced in kiloScreenAt, while Targets stays tunable so CI
			// race smokes can run a reduced screen on the full fleet.
			if p.Targets <= 0 {
				p.Targets = kiloTargets
			}
			// Faults and steering default on — the scenario exists to drive
			// every ledger mutation path (allocate/release/crash/repair/
			// transfer) at scale. Explicit settings pass through.
			if !p.Fault.Enabled() {
				p.Fault = fault.Spec{TaskFailProb: 0.05, NodeMTBF: 24 * time.Hour}
			}
			p.Recovery = cmp.Or(p.Recovery, "elsewhere")
			p.Steer = cmp.Or(p.Steer, "greedy")
			p = p.withDefaults()
			return kiloScreenAt(p.Seed, p.Targets, p)
		},
	}))
	for _, s := range sweeps {
		must(Register(s.scenario()))
	}
}
