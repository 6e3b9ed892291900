// Package cliflags is the shared flag plumbing of the impress commands.
//
// impress-run, impress-sweep, and impress-experiments all expose the
// same execution knobs — seed, engine parallelism, pilot placement,
// scheduling policy, and the fault/recovery configuration — and before
// this package each main declared its own copies, which drifted. Here
// the common set is registered once, with per-command defaults, and
// validated in one place.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/tenancy"
)

// Options sets the per-command differences when registering the common
// flags.
type Options struct {
	// SeedName renames the seed flag (impress-sweep calls it
	// "first-seed"); empty means "seed".
	SeedName string
	// SeedDefault is the seed flag's default (0 is taken literally, so
	// commands wanting the classic 42 must say so).
	SeedDefault uint64
	// SeedUsage overrides the seed flag's usage text.
	SeedUsage string
	// ParallelDefault is the -parallel default (0 = GOMAXPROCS).
	ParallelDefault int
	// WithPilots also registers -pilots (single|split); commands whose
	// campaigns fix their own placement leave it off.
	WithPilots bool
}

// Common holds the parsed values of the shared flags.
type Common struct {
	// Seed is the campaign (or first sweep) seed.
	Seed uint64
	// Parallel is the campaign-engine worker count (0 = GOMAXPROCS).
	Parallel int
	// Pilots is the placement name ("single" or "split"); only set when
	// registered via Options.WithPilots.
	Pilots string
	// Nodes is the machine size in Amarel nodes (default 1, the paper's
	// evaluation resource); only registered via Options.WithPilots.
	// Steering needs N >= 2 — on a single node the split partitions hold
	// one node each and the last-node floor vetoes every transfer.
	Nodes int
	// Policy is the agent scheduling policy name ("" = default).
	Policy string
	// FaultRate is the per-task failure probability (0 = no task
	// faults).
	FaultRate float64
	// MTBF enables the node-crash model (0 = off).
	MTBF time.Duration
	// Repair is the node repair window (used when MTBF is set).
	Repair time.Duration
	// Recovery is the fault-recovery policy name ("" = none).
	Recovery string
	// OutageMTBF enables the correlated domain-outage model (0 = off).
	OutageMTBF time.Duration
	// OutageDur is the whole-domain outage duration (0 = the repair
	// window).
	OutageDur time.Duration
	// Cascade is the per-neighbor cascade probability after a crash
	// (0 = off; needs -mtbf).
	Cascade float64
	// CascadeWindow bounds the cascade follow-up delay (0 = default).
	CascadeWindow time.Duration
	// MaintenanceSpec is the scheduled-maintenance description
	// (fault.ParseMaintenance syntax; "" = none).
	MaintenanceSpec string
	// Steer is the elastic-steering policy name ("" = none: pilot
	// partitions stay frozen).
	Steer string
	// CheckpointInterval is the virtual-time checkpoint cadence for
	// evict-and-resume (0 = checkpointing off; interrupted attempts
	// restart from zero).
	CheckpointInterval time.Duration
	// WalltimeGrace is the graceful drain window at fault-model walltime
	// expiry (0 = hard kill at the deadline).
	WalltimeGrace time.Duration
	// Fleet is a node-template spec (internal/fleet syntax) for
	// fleet-driven scenarios like kilo-screen ("" = the scenario's
	// default fleet).
	Fleet string
	// Tenants is the arriving-campaign count for the tenant-sweep
	// scenario (0 = scenario default).
	Tenants int
	// Arrival is the tenant arrival-process kind (internal/fleet name;
	// "" = scenario default).
	Arrival string
	// ArrivalSpan is the tenant arrival window (0 = scenario default).
	ArrivalSpan time.Duration
	// Admission pins the tenant-sweep to one admission-control policy
	// ("" = race all of them).
	Admission string
	// Reclaim is the inter-campaign steering policy for multi-tenant
	// services ("" = scenario default; "none" freezes grants).
	Reclaim string
	// ChromeTrace, when set, is the path the campaign's Chrome Trace
	// Event Format timeline is written to (open in Perfetto or
	// chrome://tracing). Setting it also turns the telemetry recorder on.
	ChromeTrace string
	// CPUProfile, when set, is the path a pprof CPU profile is written to
	// for the whole command run.
	CPUProfile string
	// MemProfile, when set, is the path an allocation profile is written
	// to when profiling stops.
	MemProfile string

	withPilots bool
}

// Register declares the shared flags on fs and returns the value holder.
func Register(fs *flag.FlagSet, o Options) *Common {
	c := &Common{withPilots: o.WithPilots}
	seedName := o.SeedName
	if seedName == "" {
		seedName = "seed"
	}
	seedUsage := o.SeedUsage
	if seedUsage == "" {
		seedUsage = "campaign seed"
	}
	fs.Uint64Var(&c.Seed, seedName, o.SeedDefault, seedUsage)
	fs.IntVar(&c.Parallel, "parallel", o.ParallelDefault, "campaign engine workers (0 = GOMAXPROCS)")
	if o.WithPilots {
		fs.StringVar(&c.Pilots, "pilots", "single", "pilot placement: single (one shared pilot) or split (CPU pilot + GPU pilot)")
		fs.IntVar(&c.Nodes, "nodes", 1, "machine size in Amarel nodes (use >= 2 with -steer so nodes can actually move)")
	}
	fs.StringVar(&c.Policy, "policy", "",
		"agent scheduling policy: "+strings.Join(sched.Names(), ", ")+" (empty = protocol default)")
	fs.Float64Var(&c.FaultRate, "fault", 0, "per-task failure probability injected into every pilot (0 = no task faults)")
	fs.DurationVar(&c.MTBF, "mtbf", 0, "node mean-time-between-failures for the crash model (0 = no node crashes)")
	fs.DurationVar(&c.Repair, "repair", fault.DefaultNodeRepair, "node repair window after a crash (with -mtbf)")
	fs.StringVar(&c.Recovery, "recovery", "",
		"fault-recovery policy: "+strings.Join(fault.Names(), ", ")+" (empty = none)")
	fs.DurationVar(&c.OutageMTBF, "outage-mtbf", 0, "mean time between whole-domain outages per failure domain (0 = no domain outages)")
	fs.DurationVar(&c.OutageDur, "outage-dur", 0, "domain outage duration (0 = the -repair window)")
	fs.Float64Var(&c.Cascade, "cascade", 0, "probability a node crash cascades to each same-domain neighbor (0 = off; needs -mtbf)")
	fs.DurationVar(&c.CascadeWindow, "cascade-window", 0, "window cascade follow-up crashes land in (0 = default)")
	fs.StringVar(&c.MaintenanceSpec, "maintenance", "",
		"scheduled maintenance windows, e.g. rackA@6h/30m/24h,rackB@12h/1h (domain@start/duration[/every]; empty = none)")
	fs.StringVar(&c.Steer, "steer", "",
		"elastic steering policy for multi-pilot campaigns: "+strings.Join(steer.Names(), ", ")+" (empty = none: partitions stay frozen)")
	fs.DurationVar(&c.CheckpointInterval, "checkpoint-interval", 0,
		"checkpoint cadence in virtual time for evict-and-resume, e.g. 30m (0 = off: interrupted attempts restart from zero)")
	fs.DurationVar(&c.WalltimeGrace, "walltime-grace", 0,
		"graceful drain window at fault-model walltime expiry: running work that cannot finish is checkpointed and requeued (0 = hard kill)")
	fs.StringVar(&c.Fleet, "fleet", "",
		"fleet template spec for fleet-driven scenarios, e.g. cpu:28c0g128m*900+gpu:8c4g32m*100 (empty = scenario default)")
	fs.IntVar(&c.Tenants, "tenants", 0,
		"arriving campaigns in the tenant-sweep scenario (0 = scenario default)")
	fs.StringVar(&c.Arrival, "arrival", "",
		"tenant arrival process: "+strings.Join(fleet.ArrivalKinds(), ", ")+" (empty = scenario default)")
	fs.DurationVar(&c.ArrivalSpan, "arrival-span", 0,
		"tenant arrival window, e.g. 12h (0 = scenario default; ignored for instant arrivals)")
	fs.StringVar(&c.Admission, "admit", "",
		"admission-control policy for the shared pool: "+strings.Join(tenancy.Names(), ", ")+" (empty = race all of them)")
	fs.StringVar(&c.Reclaim, "reclaim", "",
		"inter-campaign steering policy: "+strings.Join(steer.TenantNames(), ", ")+" (empty = scenario default; none freezes grants)")
	fs.StringVar(&c.ChromeTrace, "chrome-trace", "",
		"write the campaign timeline in Chrome Trace Event Format to this path (view in Perfetto; also enables telemetry)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof allocation profile to this path at exit")
	return c
}

// StartProfiles begins CPU profiling when -cpuprofile was given and
// returns a stop function that finishes the CPU profile and writes the
// -memprofile allocation snapshot. The stop function is idempotent and
// safe to both defer and call explicitly before os.Exit; with neither
// flag set it does nothing.
func (c *Common) StartProfiles() (stop func(), err error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // materialize the live set before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// Validate checks every shared value; commands call it right after
// flag.Parse and print the error verbatim.
func (c *Common) Validate() error {
	if c.withPilots && c.Pilots != "single" && c.Pilots != "split" {
		return fmt.Errorf("unknown pilot placement %q (want single or split)", c.Pilots)
	}
	if err := sched.Validate(c.Policy); err != nil {
		return err
	}
	if err := fault.Validate(c.Recovery); err != nil {
		return err
	}
	if err := steer.Validate(c.Steer); err != nil {
		return err
	}
	if c.Fleet != "" {
		// Parse errors name the offending segment, so a long spec stays
		// debuggable from the command line.
		if _, err := fleet.ParseSpec(c.Fleet); err != nil {
			return fmt.Errorf("-fleet: %w", err)
		}
	}
	if _, err := fault.ParseMaintenance(c.MaintenanceSpec); err != nil {
		return fmt.Errorf("-maintenance: %w", err)
	}
	if c.withPilots {
		if c.Nodes < 1 {
			return fmt.Errorf("-nodes %d: machine needs at least one node", c.Nodes)
		}
		if steer.Enabled(c.Steer) && !c.SplitPilots() {
			return fmt.Errorf("-steer %s needs a multi-pilot placement (-pilots split)", c.Steer)
		}
		if steer.Enabled(c.Steer) && c.Nodes < 2 {
			return fmt.Errorf("-steer %s needs a multi-node machine (-nodes >= 2); on one node each split partition holds a single node and the last-node floor vetoes every transfer", c.Steer)
		}
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("-checkpoint-interval %v: checkpoint cadence cannot be negative", c.CheckpointInterval)
	}
	if c.Tenants < 0 {
		return fmt.Errorf("-tenants %d: tenant count cannot be negative", c.Tenants)
	}
	if c.Arrival != "" {
		if err := fleet.ValidateArrival(c.Arrival); err != nil {
			return fmt.Errorf("-arrival: %w", err)
		}
	}
	if c.ArrivalSpan < 0 {
		return fmt.Errorf("-arrival-span %v: arrival window cannot be negative", c.ArrivalSpan)
	}
	if c.Admission != "" {
		if err := tenancy.Validate(c.Admission); err != nil {
			return fmt.Errorf("-admit: %w", err)
		}
	}
	if err := steer.ValidateTenant(c.Reclaim); err != nil {
		return fmt.Errorf("-reclaim: %w", err)
	}
	if c.WalltimeGrace < 0 {
		return fmt.Errorf("-walltime-grace %v: drain window cannot be negative", c.WalltimeGrace)
	}
	return c.Fault().Validate()
}

// Warnings returns advisory messages for flag combinations that parse
// and validate but do nothing: a dependent flag was set while the
// mechanism it rides on is off. Commands print them to stderr on direct
// campaign runs (scenario runs supply their own defaults, so flag-only
// analysis would cry wolf there).
func (c *Common) Warnings() []string {
	var out []string
	if c.Recovery != "" && !c.Fault().Enabled() {
		out = append(out, fmt.Sprintf(
			"-recovery %s has no effect without a failure model (set -fault, -mtbf, -outage-mtbf, or -maintenance)", c.Recovery))
	}
	if c.CheckpointInterval > 0 && !c.Fault().Enabled() && c.Steer != "preempt" {
		out = append(out, fmt.Sprintf(
			"-checkpoint-interval %v has no effect: nothing evicts running work without a failure model or -steer preempt", c.CheckpointInterval))
	}
	if c.WalltimeGrace > 0 && c.Fault().Walltime == 0 {
		out = append(out, fmt.Sprintf(
			"-walltime-grace %v has no effect without a fault-model walltime bounding a pilot", c.WalltimeGrace))
	}
	if c.Steer == "preempt" && c.CheckpointInterval == 0 {
		out = append(out,
			"-steer preempt without -checkpoint-interval loses all progress on every drain (evicted work resumes from zero)")
	}
	return out
}

// PrintWarnings writes every Warnings line to w, prefixed "warning:".
func (c *Common) PrintWarnings(w io.Writer) {
	for _, msg := range c.Warnings() {
		fmt.Fprintln(w, "warning:", msg)
	}
}

// SplitPilots reports whether -pilots selected the split placement.
func (c *Common) SplitPilots() bool { return c.Pilots == "split" }

// Fault assembles the failure-model spec the shared flags describe.
// Call Validate first: a malformed -maintenance spec is reported there
// and silently dropped here.
func (c *Common) Fault() fault.Spec {
	s := fault.Spec{TaskFailProb: c.FaultRate}
	if c.MTBF > 0 {
		s.NodeMTBF = c.MTBF
		s.NodeRepair = c.Repair
	}
	s.Domains = fault.DomainSpec{
		OutageMTBF:     c.OutageMTBF,
		OutageDuration: c.OutageDur,
		CascadeProb:    c.Cascade,
		CascadeWindow:  c.CascadeWindow,
	}
	s.Domains.Maintenance, _ = fault.ParseMaintenance(c.MaintenanceSpec)
	return s
}

// FaultFlagNames lists the flag names this package registers for the
// fault subsystem — commands that gate scenario-incompatible flags use
// it to keep their allowlists in one place.
func FaultFlagNames() []string {
	return []string{
		"fault", "mtbf", "repair", "recovery",
		"outage-mtbf", "outage-dur", "cascade", "cascade-window", "maintenance",
	}
}

// TelemetryFlagNames lists the observability flags this package
// registers — the scenario-only allowlist companion of FaultFlagNames.
func TelemetryFlagNames() []string {
	return []string{"chrome-trace"}
}

// PreemptFlagNames lists the checkpointed-preemption flags this package
// registers — the allowlist companion of FaultFlagNames.
func PreemptFlagNames() []string {
	return []string{"checkpoint-interval", "walltime-grace"}
}

// ScenarioOnlyFlagNames lists the shared flags that only -scenario runs
// read (today the tenant-sweep service knobs): no command's direct run
// consults them, so every command rejects them outside -scenario.
func ScenarioOnlyFlagNames() []string {
	return []string{"tenants", "arrival", "arrival-span", "admit", "reclaim"}
}

// WhichSet returns, as "-name" in lexical order, those of names that were
// set on the command line fs parsed — the flags a command would otherwise
// silently ignore.
func WhichSet(fs *flag.FlagSet, names ...string) []string {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if want[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}
