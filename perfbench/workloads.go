package main

import (
	"fmt"
	"io"
	"time"

	"impress/internal/campaign"
	"impress/internal/core"
	"impress/internal/fault"
	"impress/internal/landscape"
	"impress/internal/report"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// sizes scales every workload. fullSizes is what the benchmark measures;
// the self-tests run the same code on smallSizes.
type sizes struct {
	fleetTargets  int // fleet-churn: miniature targets
	tenants       int // tenant-service: tenants per service campaign
	tenantTargets int // tenant-service: total targets (split over tenants)
	tenantSeeds   int // tenant-service: seeds of the admission grid
}

var fullSizes = sizes{
	fleetTargets:  1024,
	tenants:       8,
	tenantTargets: 16,
	tenantSeeds:   2,
}

var smallSizes = sizes{
	fleetTargets:  48,
	tenants:       2,
	tenantTargets: 2,
	tenantSeeds:   1,
}

// engineWorkers is the campaign engine's pool size, fixed so the load is
// the same on every machine: the benchmark is sized for two cores.
const engineWorkers = 2

// The fleet-churn workload: the kilo-screen fleet with faults, recovery
// and steering on, driven by many tiny targets so the control plane and
// the bookkeeping writes dominate, not the science payloads.
const (
	fleetSpec     = "cpu:8c0g32m*4+gpu:8c4g32m*996"
	fleetPeptide  = workload.AlphaSynucleinTail4
	fleetCutoff   = 4.5
	fleetRecLenLo = 8
	fleetRecLenHi = 12
)

// plan is a workload's set-up output: the campaigns to run and how to
// render what a user of the scenario would read and keep.
type plan struct {
	campaigns []campaign.Campaign
	// targets are the targets the benchmark built during set-up (nil when
	// the program builds them inside the run, as the tenancy service does).
	targets []*workload.Target
	// landscape is the truth-landscape configuration the targets use.
	landscape landscape.Config
	// report and reportCSV render the scenario's tables; nil renders the
	// one-line campaign summary per result instead, and no CSV.
	report    func([]*core.Result) string
	reportCSV func(io.Writer, []*core.Result) error
	// artifacts makes the run write its Chrome trace and its result JSON
	// with task records, as a user keeping the run's outputs would.
	artifacts bool
}

// bench is one workload of the benchmark.
type bench struct {
	name string
	// setup builds the workload's plan from the seed and sizes.
	setup func(seed uint64, sz sizes) (*plan, error)
}

// The two workloads stress different layers, and they form the pair for
// payload memoization: tenant-service's admission cells replay each
// tenant's payloads three times, while fleet-churn's payload inputs are
// all new apart from retries.
var benches = []bench{
	// About 41k cheap task attempts on the 1000-node kilo-screen fleet
	// with faults, recovery, steering and telemetry on, keeping its Chrome
	// trace and result JSON: the control plane and the bookkeeping writes
	// do the work, and science changes should not move it.
	{name: "fleet-churn", setup: fleetChurnPlan},
	// tenant-sweep: 8 wave-arriving tenants over 16 targets, 3 admission
	// policies x 2 seeds = 6 service campaigns on the 2-worker engine,
	// fairness report rendered. Many campaigns share one event loop and
	// one lease ledger; tenants build their targets inside the run, and
	// surrogate corruption does most of the work. The only workload that
	// runs tenancy.
	{
		name: "tenant-service",
		setup: func(seed uint64, sz sizes) (*plan, error) {
			return scenarioPlan("tenant-sweep", campaign.Params{
				Seed: seed, Tenants: sz.tenants, Targets: sz.tenantTargets, Seeds: sz.tenantSeeds,
			})
		},
	},
}

func lookupBench(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

// scenarioPlan builds a registered scenario and takes its report
// renderers.
func scenarioPlan(name string, p campaign.Params) (*plan, error) {
	sc, ok := campaign.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered", name)
	}
	cs, err := sc.Build(p)
	if err != nil {
		return nil, err
	}
	return &plan{
		campaigns: cs,
		landscape: workload.DefaultConfig().Landscape,
		report:    sc.Report,
		reportCSV: sc.ReportCSV,
	}, nil
}

// fleetChurnPlan builds the fleet-churn campaign: the kilo-screen
// configuration over miniature targets.
func fleetChurnPlan(seed uint64, sz sizes) (*plan, error) {
	wcfg := workload.DefaultConfig()
	wcfg.Landscape.ContactCutoff = fleetCutoff
	rng := xrand.New(xrand.Derive(seed, "fleet-churn"))
	targets := make([]*workload.Target, sz.fleetTargets)
	for i := range targets {
		recLen := fleetRecLenLo + rng.Intn(fleetRecLenHi-fleetRecLenLo+1)
		t, err := workload.NewTarget(seed, fmt.Sprintf("mini-%04d", i+1), recLen, fleetPeptide, wcfg)
		if err != nil {
			return nil, err
		}
		targets[i] = t
	}
	pilots, err := campaign.FleetPilots(fleetSpec, seed)
	if err != nil {
		return nil, err
	}
	cfg := core.AdaptiveConfig(seed)
	cfg.Pilots = pilots
	cfg.Fault = fault.Spec{TaskFailProb: 0.05, NodeMTBF: 24 * time.Hour}
	cfg.Recovery = "elsewhere"
	cfg.Steer = "greedy"
	cfg.Telemetry = true
	return &plan{
		campaigns: []campaign.Campaign{{
			Name:    fmt.Sprintf("fleet-churn/seed%d", seed),
			Seed:    seed,
			Targets: targets,
			Config:  cfg,
		}},
		targets:   targets,
		landscape: wcfg.Landscape,
		artifacts: true,
	}, nil
}

// results returns the completed results of outs in input order.
func results(outs []campaign.Outcome) []*core.Result {
	rs := make([]*core.Result, 0, len(outs))
	for _, o := range outs {
		if o.Result != nil {
			rs = append(rs, o.Result)
		}
	}
	return rs
}

// renderReport renders what the scenario shows its user: its table and
// CSV when it has them, else each campaign's summary line.
func renderReport(pl *plan, rs []*core.Result, w io.Writer) error {
	if pl.report == nil {
		for _, r := range rs {
			if _, err := io.WriteString(w, report.Summary(r)+"\n"); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := io.WriteString(w, pl.report(rs)); err != nil {
		return err
	}
	if pl.reportCSV != nil {
		return pl.reportCSV(w, rs)
	}
	return nil
}
