// Package impress is the public API of the IMPRESS reproduction: adaptive
// protein design protocols (IM-RP) and their supporting middleware, per
// "Adaptive Protein Design Protocols and Middleware" (IPPS 2025).
//
// The package couples a ProteinMPNN-style sequence generator and an
// AlphaFold-style structure predictor through an adaptive pipelines
// coordinator executing on a RADICAL-Pilot-style runtime over a simulated
// HPC resource. Campaigns replay deterministically in virtual time, so
// the paper's evaluation (Table I, Figures 2–5) regenerates in seconds.
//
// Quick start:
//
//	targets, _ := impress.NamedPDZTargets(42)
//	result, _ := impress.RunAdaptive(targets, impress.AdaptiveConfig(42))
//	fmt.Println(impress.Summary(result))
//
// See the examples directory for complete programs, and the Experiments
// function for the paper's evaluation harness.
package impress

import (
	"io"

	"impress/internal/campaign"
	"impress/internal/cluster"
	"impress/internal/core"
	"impress/internal/costmodel"
	"impress/internal/fault"
	"impress/internal/fold"
	"impress/internal/ga"
	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/pipeline"
	"impress/internal/report"
	"impress/internal/fleet"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/telemetry"
	"impress/internal/tenancy"
	"impress/internal/workload"
)

// Core domain types, aliased from the implementation packages so library
// users work with one import path.
type (
	// Target is one design problem: a starting receptor–peptide complex
	// plus its hidden fitness landscape.
	Target = workload.Target
	// WorkloadConfig tunes synthetic target generation.
	WorkloadConfig = workload.Config
	// Metrics are AlphaFold confidence/error measures (pLDDT, pTM,
	// inter-chain pAE).
	Metrics = landscape.Metrics
	// Result is a completed campaign's full record.
	Result = core.Result
	// Config describes a campaign (protocol parameters, machine,
	// sub-pipeline policy, concurrency).
	Config = core.Config
	// SubPolicy governs dynamic sub-pipeline generation.
	SubPolicy = core.SubPolicy
	// PipelineParams configures the per-pipeline protocol (cycles,
	// retries, selection policy, fold task splitting).
	PipelineParams = pipeline.Params
	// Trajectory is one concluded design cycle.
	Trajectory = pipeline.Trajectory
	// MPNNConfig configures the sequence-generation stage.
	MPNNConfig = mpnn.Config
	// FoldConfig configures the structure-prediction stage.
	FoldConfig = fold.Config
	// CostParams holds the calibrated task duration/resource models.
	CostParams = costmodel.Params
	// MachineSpec describes the HPC resource.
	MachineSpec = cluster.Spec
	// SelectionPolicy orders candidate sequences for evaluation.
	SelectionPolicy = ga.SelectionPolicy
	// PilotSpec declares one pilot partition of a multi-pilot campaign.
	PilotSpec = core.PilotSpec
	// ResourceClass buckets tasks by hardware (CPU vs GPU) for placement.
	ResourceClass = core.ResourceClass
	// Campaign is one unit of work for the campaign engine.
	Campaign = campaign.Campaign
	// CampaignOutcome is one campaign's result or failure.
	CampaignOutcome = campaign.Outcome
	// CampaignEngine executes campaigns on a bounded worker pool.
	CampaignEngine = campaign.Engine
	// Scenario declares a family of campaigns as data.
	Scenario = campaign.Scenario
	// ScenarioParams parameterizes scenario construction.
	ScenarioParams = campaign.Params
	// FaultSpec declares a campaign's failure models (per-task faults,
	// node MTBF crashes, walltime expiry, correlated domain failures);
	// the zero value injects nothing. Assign to Config.Fault or
	// ScenarioParams.Fault.
	FaultSpec = fault.Spec
	// DomainSpec declares the correlated failure-domain models
	// (FaultSpec.Domains): whole-domain outages, same-domain crash
	// cascades, and scheduled maintenance windows.
	DomainSpec = fault.DomainSpec
	// Maintenance is one scheduled maintenance window over a failure
	// domain (DomainSpec.Maintenance; parse flag syntax with
	// ParseMaintenance).
	Maintenance = fault.Maintenance
	// FaultStats is a campaign's fault-injection and recovery record
	// (Result.Faults; nil without failure models).
	FaultStats = core.FaultStats
	// CriticalPath is the makespan critical-path analysis of a campaign
	// (Result.CriticalPath): the attempt chain whose gap + wait + setup +
	// run sums to the makespan, plus per-stage slack.
	CriticalPath = telemetry.CriticalPath
	// TelemetryData is a campaign's observability record
	// (Result.Telemetry; nil unless Config.Telemetry was set).
	TelemetryData = telemetry.Data
	// TenancySpec declares a multi-tenant service: many campaigns
	// arriving on one shared cluster under admission control. Assign to
	// Campaign.Tenancy or run directly with NewTenancyService.
	TenancySpec = tenancy.Spec
	// TenancyConfig is the service-level half of a TenancySpec (shared
	// pool, arrival process, admission and reclaim policies).
	TenancyConfig = tenancy.Config
	// TenantSpec declares one arriving tenant campaign of a
	// multi-tenant service.
	TenantSpec = tenancy.TenantSpec
	// TenancyService executes one multi-tenant service spec.
	TenancyService = tenancy.Service
	// TenantStat is one tenant's admission and fairness record in a
	// service result (Result.Tenants).
	TenantStat = core.TenantStat
)

// Resource classes for PilotSpec.Serves.
const (
	ClassCPU = core.ClassCPU
	ClassGPU = core.ClassGPU
)

// Selection policies for PipelineParams.Selection.
const (
	// SelectBestLogLikelihood tries candidates in MPNN log-likelihood
	// order (IM-RP).
	SelectBestLogLikelihood = ga.SelectBestLogLikelihood
	// SelectRandom picks candidates in random order (CONT-V).
	SelectRandom = ga.SelectRandom
	// SelectOracle ranks by true landscape quality (ablation upper
	// bound).
	SelectOracle = ga.SelectOracle
)

// α-synuclein C-terminal peptides, the paper's design targets.
const (
	AlphaSynucleinTail10 = workload.AlphaSynucleinTail10
	AlphaSynucleinTail4  = workload.AlphaSynucleinTail4
)

// Metric extractors for Result.IterationSummary / NetDelta.
var (
	PLDDT = core.PLDDTOf
	PTM   = core.PTMOf
	IPAE  = core.IPAEOf
)

// Amarel returns the paper's evaluation resource: one node with 28 CPU
// cores, 4 GPUs, and 128 GB of memory.
func Amarel() MachineSpec { return cluster.AmarelNode() }

// AmarelCluster returns n Amarel nodes as one partition — the multi-node
// machine elastic steering campaigns run on (split it with SplitPilots
// and set Config.Steer).
func AmarelCluster(n int) MachineSpec { return cluster.AmarelCluster(n) }

// DefaultWorkloadConfig returns the standard target-synthesis settings.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// NamedPDZTargets builds the paper's four PDZ domains (NHERF3, HTRA1,
// SCRIB, SHANK1) in complex with the α-synuclein 10-mer.
func NamedPDZTargets(seed uint64) ([]*Target, error) {
	return workload.NamedTargets(seed, workload.DefaultConfig())
}

// PDZScreen builds the expanded workload of n synthetic PDB-mined
// PDZ–peptide complexes bound to the α-synuclein 4-mer (the paper uses
// n=70).
func PDZScreen(seed uint64, n int) ([]*Target, error) {
	return workload.MinedScreen(seed, n, workload.DefaultConfig())
}

// NewTarget synthesizes a custom design problem.
func NewTarget(seed uint64, name string, receptorLen int, peptide string) (*Target, error) {
	return workload.NewTarget(seed, name, receptorLen, peptide, workload.DefaultConfig())
}

// ProteaseTarget builds a monomeric protease-like target for the paper's
// future-work protocol, returning the catalytic triad positions that the
// MPNN stage must hold fixed.
func ProteaseTarget(seed uint64, name string, receptorLen int) (*Target, []int, error) {
	return workload.ProteaseTarget(seed, name, receptorLen, workload.DefaultConfig())
}

// AdaptiveConfig returns the IM-RP campaign configuration on the Amarel
// node: adaptive selection and pruning, split AlphaFold tasks,
// asynchronous pipeline execution, dynamic sub-pipelines.
func AdaptiveConfig(seed uint64) Config { return core.AdaptiveConfig(seed) }

// ControlConfig returns the CONT-V baseline configuration: the same
// stages, random selection, no comparisons or pruning, monolithic
// AlphaFold tasks, strictly sequential execution.
func ControlConfig(seed uint64) Config { return core.ControlConfig(seed) }

// IMRPParams returns the adaptive per-pipeline protocol parameters.
func IMRPParams() PipelineParams { return pipeline.IMRPParams() }

// ControlParams returns the CONT-V per-pipeline protocol parameters.
func ControlParams() PipelineParams { return pipeline.ControlParams() }

// SplitPilots partitions a machine into the heterogeneous CPU/GPU pilot
// pair (the paper's ParaFold-style placement): CPU-class stages run on a
// dedicated CPU pilot while sampling and inference get their own GPU
// pilot. Assign the result to Config.Pilots.
func SplitPilots(machine MachineSpec) ([]PilotSpec, error) {
	return core.SplitPilots(machine)
}

// FleetPilots generates a seed-deterministic heterogeneous fleet from a
// node-template spec (e.g. "cpu:28c0g128m*900+gpu:8c4g32m*100") and
// splits it into a CPU pilot and a GPU pilot with explicit per-node
// capacities. Assign the result to Config.Pilots.
func FleetPilots(spec string, seed uint64) ([]PilotSpec, error) {
	return campaign.FleetPilots(spec, seed)
}

// RunAdaptive executes an IM-RP campaign over targets.
func RunAdaptive(targets []*Target, cfg Config) (*Result, error) {
	return core.RunAdaptive(targets, cfg)
}

// RunControl executes a CONT-V campaign over targets.
func RunControl(targets []*Target, cfg Config) (*Result, error) {
	return core.RunControl(targets, cfg)
}

// NewCampaignEngine creates a campaign engine with the given concurrency;
// workers <= 0 uses GOMAXPROCS.
func NewCampaignEngine(workers int) *CampaignEngine {
	return campaign.NewEngine(workers)
}

// RunCampaigns executes campaigns on a bounded worker pool and returns
// outcomes in input order. Campaigns are hermetically seeded, so outcomes
// are bit-identical regardless of worker count; per-campaign failures
// never discard the rest of a batch.
func RunCampaigns(campaigns []Campaign, workers int) []CampaignOutcome {
	return campaign.Run(campaigns, workers)
}

// Scenarios returns the registered campaign scenarios (sorted by name):
// the declarative workload catalogue, including the paper's pair, sweep,
// screen, and stress workloads.
func Scenarios() []Scenario { return campaign.Scenarios() }

// BuildScenario constructs the campaigns of a named scenario.
func BuildScenario(name string, p ScenarioParams) ([]Campaign, error) {
	return campaign.Build(name, p)
}

// LookupScenario returns a registered scenario by name.
func LookupScenario(name string) (Scenario, bool) { return campaign.Lookup(name) }

// RegisterScenario adds a new workload family to the scenario registry.
func RegisterScenario(s Scenario) error { return campaign.Register(s) }

// Summary renders a one-paragraph textual summary of a campaign result.
func Summary(r *Result) string { return report.Summary(r) }

// SchedulingPolicies returns the registered pilot-agent scheduling policy
// names (sorted): the values accepted by Config.Policy, PilotSpec.Policy,
// and the cmds' -policy flag.
func SchedulingPolicies() []string { return sched.Names() }

// ValidatePolicy checks a scheduling-policy name; the empty string is
// valid (it derives the classic behaviour from Config.Backfill).
func ValidatePolicy(name string) error { return sched.Validate(name) }

// PolicyCompare renders the scheduling-policy comparison table over
// campaign results grouped by their resolved policy — the report behind
// the policy-compare scenario.
func PolicyCompare(results []*Result) string { return report.PolicyCompare.Table(results) }

// PolicyCompareCSV writes one policy-comparison CSV row per result.
func PolicyCompareCSV(w io.Writer, results []*Result) error {
	return report.PolicyCompare.CSV(w, results)
}

// RecoveryPolicies returns the registered fault-recovery policy names
// (sorted): the values accepted by Config.Recovery, PilotSpec.Recovery,
// and the cmds' -recovery flag.
func RecoveryPolicies() []string { return fault.Names() }

// ValidateRecovery checks a fault-recovery policy name; the empty string
// is valid and means "none" (failures surface).
func ValidateRecovery(name string) error { return fault.Validate(name) }

// ParseMaintenance parses a scheduled-maintenance description of the
// form "rackA@6h/30m/24h,rackB@12h/1h" — comma-separated
// domain@start/duration[/every] windows — into DomainSpec.Maintenance
// entries. An empty string yields nil windows.
func ParseMaintenance(s string) ([]Maintenance, error) { return fault.ParseMaintenance(s) }

// SteeringPolicies returns the registered elastic-steering policy names
// (sorted): the values accepted by Config.Steer, PilotSpec.Steer,
// ScenarioParams.Steer, and the cmds' -steer flag.
func SteeringPolicies() []string { return steer.Names() }

// ValidateSteer checks an elastic-steering policy name; the empty string
// is valid and means "none" (pilot partitions stay frozen).
func ValidateSteer(name string) error { return steer.Validate(name) }

// SteerEnabled reports whether a steering-policy name actually steers —
// false for "" and "none", the frozen defaults.
func SteerEnabled(name string) bool { return steer.Enabled(name) }

// Elastic renders the steering comparison table over campaign results
// grouped by their steering policy, against the frozen split — the
// report behind the elastic-screen scenario.
func Elastic(results []*Result) string { return report.Elastic.Table(results) }

// ElasticCSV writes one steering-comparison CSV row per result.
func ElasticCSV(w io.Writer, results []*Result) error {
	return report.Elastic.CSV(w, results)
}

// Resilience renders the fault-sweep comparison table over campaign
// results grouped by (recovery policy, failure rate), against their
// fault-free baselines — the report behind the fault-sweep scenario.
func Resilience(results []*Result) string { return report.Resilience.Table(results) }

// ResilienceCSV writes one resilience CSV row per result.
func ResilienceCSV(w io.Writer, results []*Result) error {
	return report.Resilience.CSV(w, results)
}

// Chaos renders the correlated-failure comparison table over campaign
// results grouped by (recovery policy, steering policy), against their
// fault-free baselines — the report behind the chaos-sweep scenario.
func Chaos(results []*Result) string { return report.Chaos.Table(results) }

// ChaosCSV writes one chaos CSV row per result.
func ChaosCSV(w io.Writer, results []*Result) error {
	return report.Chaos.CSV(w, results)
}

// Preemption renders the checkpointed-preemption comparison table over
// campaign results grouped by (checkpoint interval, kill-vs-drain,
// steering policy), against their fault-free baselines — the report
// behind the preempt-sweep scenario.
func Preemption(results []*Result) string { return report.Preemption.Table(results) }

// PreemptionCSV writes one preemption CSV row per result.
func PreemptionCSV(w io.Writer, results []*Result) error {
	return report.Preemption.CSV(w, results)
}

// NewTenancyService validates a multi-tenant service spec and prepares
// it to run: a shared concurrent-safe cluster leased to a deterministic
// stream of arriving tenant campaigns under admission control, with
// fairness-aware inter-campaign steering reclaiming nodes between them.
// Campaigns with Campaign.Tenancy set run through the same service on
// the campaign engine; use this direct form to reach the per-tenant
// results and event streams.
func NewTenancyService(spec TenancySpec) (*TenancyService, error) {
	return tenancy.NewService(spec)
}

// AdmissionPolicies returns the registered admission-control policy
// names (sorted): the values accepted by TenancyConfig.Admission,
// ScenarioParams.Admission, and the cmds' -admit flag.
func AdmissionPolicies() []string { return tenancy.Names() }

// ValidateAdmission checks an admission-control policy name; the empty
// string is valid and means the default (fcfs-admit).
func ValidateAdmission(name string) error {
	if name == "" {
		return nil
	}
	return tenancy.Validate(name)
}

// ArrivalKinds returns the supported tenant arrival-process names
// (sorted): the values accepted by TenancyConfig.Arrival,
// ScenarioParams.Arrival, and the cmds' -arrival flag.
func ArrivalKinds() []string { return fleet.ArrivalKinds() }

// TenantSteeringPolicies returns the registered inter-campaign steering
// policy names (sorted): the values accepted by TenancyConfig.Reclaim,
// ScenarioParams.Reclaim, and the cmds' -reclaim flag.
func TenantSteeringPolicies() []string { return steer.TenantNames() }

// ValidateTenantSteer checks an inter-campaign steering policy name;
// the empty string is valid (the scenario default applies) and "none"
// freezes every admission grant for life.
func ValidateTenantSteer(name string) error { return steer.ValidateTenant(name) }

// JainOf returns Jain's fairness index over a service result's
// per-tenant slowdowns: 1 when the shared cluster stretched every
// tenant equally, approaching 1/n when admission control sacrificed
// some tenants to others.
func JainOf(r *Result) float64 { return report.JainOf(r) }

// Fairness renders the multi-tenant admission comparison table over
// service results grouped by admission policy — the report behind the
// tenant-sweep scenario.
func Fairness(results []*Result) string { return report.Fairness.Table(results) }

// FairnessCSV writes one fairness CSV row per tenant per service run.
func FairnessCSV(w io.Writer, results []*Result) error {
	return report.FairnessCSV(w, results)
}

// CriticalPathReport renders a campaign's critical path — the segment
// chain accounting for the whole makespan — and its per-stage slack
// table.
func CriticalPathReport(r *Result) string { return report.CriticalPath(r) }

// CriticalPathCSV writes one CSV row per critical-path segment for each
// result.
func CriticalPathCSV(w io.Writer, results []*Result) error {
	return report.CriticalPathCSV(w, results)
}

// StageSlackCSV writes the per-stage slack rows of each result's
// critical-path analysis.
func StageSlackCSV(w io.Writer, results []*Result) error {
	return report.StageSlackCSV(w, results)
}

// WriteChromeTrace writes the results' timelines in Chrome Trace Event
// Format (view in Perfetto or chrome://tracing): task spans and per-node
// run slices per pilot, queue-depth and gauge counters, and instant
// markers for faults, transfers, and steering decisions. labels names
// each result's campaign; a nil labels falls back to each result's
// approach.
func WriteChromeTrace(w io.Writer, results []*Result, labels []string) error {
	cts := make([]telemetry.CampaignTrace, 0, len(results))
	for i, r := range results {
		if r == nil {
			continue
		}
		label := r.Approach
		if i < len(labels) {
			label = labels[i]
		}
		cts = append(cts, r.CampaignTrace(label))
	}
	return telemetry.WriteChromeTrace(w, cts)
}

// ValidateChromeTrace checks that data parses as Chrome Trace Event
// Format with balanced, properly nested spans — the validation CI runs
// on every emitted trace.
func ValidateChromeTrace(data []byte) error { return telemetry.ValidateChromeTrace(data) }
