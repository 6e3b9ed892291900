// Package pipeline implements the IMPRESS pipeline of Section II-C: a
// chain of stages that designs a binder for one starting structure over M
// design cycles.
//
//	S1  ProteinMPNN generates K candidate sequences for the backbone.
//	S2  Candidates are ranked by log-likelihood.
//	S3  The top candidates are compiled into a FASTA file.
//	S4  AlphaFold predicts the candidate complex (MSA + inference) and
//	    ranks its models by pTM.
//	S5  Quality metrics (pLDDT, pTM, inter-chain pAE) are gathered.
//	S6  The metrics are compared with the previous iteration: on decline
//	    the next-ranked candidate is re-predicted (up to MaxRetries
//	    alternates, then the pipeline terminates); on improvement the new
//	    model seeds the next cycle (S6M+7).
//
// A Pipeline is a pure state machine: it emits pilot task descriptions
// (Steps) and consumes their results; the coordinator (internal/core)
// owns submission, monitoring and the adaptive decisions between
// pipelines. RADICAL-Pilot has no pipeline abstraction ("RP does not
// provide an abstraction of a pipeline nor a workflow; thus, we
// implemented a Pipeline class"), and this type is that class.
package pipeline

import (
	"fmt"

	"impress/internal/costmodel"
	"impress/internal/fold"
	"impress/internal/ga"
	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/pilot"
	"impress/internal/protein"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// Stage identifies a pipeline stage.
type Stage int

const (
	// StageMPNN is S1: sequence generation.
	StageMPNN Stage = iota + 1
	// StageRank is S2: log-likelihood ranking.
	StageRank
	// StageFasta is S3: FASTA compilation.
	StageFasta
	// StageMSA is the CPU half of S4 when the fold task is split
	// (ParaFold-style, IM-RP).
	StageMSA
	// StageFold is S4's structure inference: GPU half in split mode, or
	// the full monolithic MSA+inference task (CONT-V).
	StageFold
	// StageMetrics is S5: metric gathering.
	StageMetrics
)

var stageNames = map[Stage]string{
	StageMPNN:    "mpnn",
	StageRank:    "rank",
	StageFasta:   "fasta",
	StageMSA:     "af_msa",
	StageFold:    "af_fold",
	StageMetrics: "metrics",
}

func (s Stage) String() string {
	if n, ok := stageNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Params configures one pipeline instance.
type Params struct {
	// Cycles is M, the number of design cycles.
	Cycles int
	// MaxRetries bounds Stage 6's alternate-sequence attempts per cycle
	// (paper: 10, "after which the pipeline is terminated").
	MaxRetries int
	// Selection orders candidates for Stage 4 attempts.
	Selection ga.SelectionPolicy
	// Adaptive enables Stage 6's compare-and-prune. CONT-V sets false:
	// "performance was not compared between iterations, and trajectories
	// were not pruned".
	Adaptive bool
	// FinalCycleAdaptive lets the last cycle skip adaptivity even when
	// Adaptive is set — the configuration behind Fig. 3's quality drop.
	FinalCycleAdaptive bool
	// SplitFold runs S4 as separate MSA (CPU) and inference (GPU) tasks;
	// false runs the monolithic AlphaFold task whose held-but-idle GPU
	// produces Fig. 4's ~1% utilization.
	SplitFold bool
	// ReuseMSA caches MSA features across cycles of this pipeline.
	// When false (the IM-RP default), each cycle recomputes the MSA for
	// its redesigned receptor, but Stage 6 retries within a cycle still
	// share it — retries re-predict the same complex, which is what makes
	// alternate-sequence evaluation cheap on GPUs while MSA work keeps
	// the CPUs saturated.
	ReuseMSA bool
	// MPNN and Fold configure the simulators.
	MPNN mpnn.Config
	Fold fold.Config
	// Cost supplies durations and resource shapes.
	Cost costmodel.Params
	// Seed drives all stochastic choices of this pipeline.
	Seed uint64
}

// IMRPParams returns the adaptive (IM-RP) configuration.
func IMRPParams() Params {
	return Params{
		Cycles:             4,
		MaxRetries:         10,
		Selection:          ga.SelectBestLogLikelihood,
		Adaptive:           true,
		FinalCycleAdaptive: true,
		SplitFold:          true,
		ReuseMSA:           false,
		MPNN:               mpnn.DefaultConfig(),
		Fold:               fold.DefaultConfig(),
		Cost:               costmodel.Default(),
		Seed:               1,
	}
}

// ControlParams returns the CONT-V configuration: same stages, random
// selection, no comparisons, no pruning, monolithic AlphaFold tasks.
func ControlParams() Params {
	p := IMRPParams()
	p.Selection = ga.SelectRandom
	p.Adaptive = false
	p.SplitFold = false
	p.ReuseMSA = false
	return p
}

// Validate rejects unusable parameter sets.
func (p Params) Validate() error {
	if p.Cycles <= 0 {
		return fmt.Errorf("pipeline: Cycles must be positive, got %d", p.Cycles)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("pipeline: negative MaxRetries")
	}
	if err := p.MPNN.Validate(); err != nil {
		return err
	}
	if err := p.Fold.Validate(); err != nil {
		return err
	}
	return p.Cost.Validate()
}

// Trajectory records one concluded design cycle — the unit the paper
// counts in Table I ("CONT-V only examined 16 trajectories ... IM-RP
// evaluated 23 unique trajectories"). Its JSON form leaves out the
// runtime structure pointers; the accepted design survives in the
// campaign record's final designs.
type Trajectory struct {
	PipelineID string `json:"pipeline_id"`
	Target     string `json:"target"`
	// Cycle is the 1-based design cycle within this pipeline.
	Cycle int `json:"cycle"`
	// Generation is the structure generation the cycle produced; Fig. 2
	// and Fig. 3 bucket metrics by it.
	Generation int `json:"generation"`
	// CandidateRank is the rank of the finally chosen candidate within
	// the cycle's try order (0 = first choice).
	CandidateRank int `json:"candidate_rank"`
	// Evaluations counts AlphaFold predictions spent on the cycle
	// (1 + retries).
	Evaluations int `json:"evaluations"`
	// Metrics are the accepted (or final declined) design's metrics.
	Metrics landscape.Metrics `json:"metrics"`
	// Accepted reports whether Stage 6 accepted the design.
	Accepted bool `json:"accepted"`
	// Sub marks trajectories produced by coordinator-spawned
	// sub-pipelines.
	Sub bool `json:"sub"`
	// Input is the backbone the cycle designed on; the coordinator's
	// decision step hands it to refinement sub-pipelines so they
	// re-process the low-quality cycle rather than extend past it.
	Input *protein.Structure `json:"-"`
	// Result is the accepted design's structure (nil when declined).
	Result *protein.Structure `json:"-"`
}

// Step is a task the coordinator must submit next.
type Step struct {
	Stage Stage
	Desc  pilot.TaskDescription
}

// Outcome is what advancing the pipeline produces.
type Outcome struct {
	// Steps are tasks to submit now (sequential within one pipeline:
	// always zero or one in the current protocol).
	Steps []Step
	// Cycle is non-nil when a design cycle just concluded.
	Cycle *Trajectory
	// Finished marks pipeline completion (all cycles done or terminated).
	Finished bool
	// Terminated marks early termination by retry exhaustion.
	Terminated bool
}

// Pipeline is one design trajectory's state machine.
type Pipeline struct {
	ID  string
	Sub bool

	target    *workload.Target
	params    Params
	sampler   *mpnn.Sampler
	predictor *fold.Predictor

	st    *protein.Structure
	best  *landscape.Metrics
	cycle int // 0-based

	msaReady bool
	designs  []mpnn.Design
	order    []int
	tryIdx   int
	evals    int

	trajectories []Trajectory
	started      bool
	finished     bool
	terminated   bool
}

// New builds a pipeline for a target. start overrides the target's
// generation-0 structure (sub-pipelines start from the best known
// design); pass nil to start fresh.
func New(id string, target *workload.Target, start *protein.Structure, params Params) (*Pipeline, error) {
	if target == nil {
		return nil, fmt.Errorf("pipeline: nil target")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	sampler, err := mpnn.New(target.Truth, params.MPNN)
	if err != nil {
		return nil, err
	}
	predictor, err := fold.New(target.Truth, params.Fold, xrand.Derive(params.Seed, "fold:"+id))
	if err != nil {
		return nil, err
	}
	st := start
	if st == nil {
		st = target.Structure
	}
	if st.Len() != target.Truth.Len() {
		return nil, fmt.Errorf("pipeline: start structure length %d does not match target %d", st.Len(), target.Truth.Len())
	}
	return &Pipeline{
		ID:        id,
		target:    target,
		params:    params,
		sampler:   sampler,
		predictor: predictor,
		st:        st.Clone(),
	}, nil
}

// Target returns the pipeline's target name.
func (p *Pipeline) Target() string { return p.target.Name }

// Params returns the pipeline's configuration.
func (p *Pipeline) Params() Params { return p.params }

// Structure returns the current (latest accepted) structure.
func (p *Pipeline) Structure() *protein.Structure { return p.st }

// BestMetrics returns the metrics of the last accepted design (ok=false
// before the first acceptance).
func (p *Pipeline) BestMetrics() (landscape.Metrics, bool) {
	if p.best == nil {
		return landscape.Metrics{}, false
	}
	return *p.best, true
}

// Trajectories returns the concluded design cycles so far.
func (p *Pipeline) Trajectories() []Trajectory {
	return append([]Trajectory(nil), p.trajectories...)
}

// Finished reports pipeline completion.
func (p *Pipeline) Finished() bool { return p.finished }

// Terminated reports early termination by retry exhaustion.
func (p *Pipeline) Terminated() bool { return p.terminated }

// CurrentCycle returns the 1-based cycle in progress (or last, when
// finished).
func (p *Pipeline) CurrentCycle() int { return p.cycle + 1 }

// Start emits the first step (Stage 1 of cycle 1). It can be called once.
func (p *Pipeline) Start() Outcome {
	if p.started {
		panic("pipeline: Start called twice")
	}
	p.started = true
	return Outcome{Steps: []Step{p.mpnnStep()}}
}

// adaptiveNow reports whether Stage 6 comparisons apply to the current
// cycle.
func (p *Pipeline) adaptiveNow() bool {
	if !p.params.Adaptive {
		return false
	}
	if !p.params.FinalCycleAdaptive && p.cycle == p.params.Cycles-1 {
		return false
	}
	return true
}

// HandleResult feeds a completed stage's payload back into the state
// machine and returns what to do next.
func (p *Pipeline) HandleResult(stage Stage, value any) Outcome {
	if !p.started || p.finished {
		panic(fmt.Sprintf("pipeline %s: result for %v outside active lifecycle", p.ID, stage))
	}
	switch stage {
	case StageMPNN:
		designs, ok := value.([]mpnn.Design)
		if !ok {
			panic(fmt.Sprintf("pipeline %s: MPNN payload %T", p.ID, value))
		}
		p.designs = designs
		return Outcome{Steps: []Step{p.rankStep()}}

	case StageRank:
		order, ok := value.([]int)
		if !ok {
			panic(fmt.Sprintf("pipeline %s: rank payload %T", p.ID, value))
		}
		p.order = order
		p.tryIdx = 0
		p.evals = 0
		return Outcome{Steps: []Step{p.fastaStep()}}

	case StageFasta:
		return Outcome{Steps: []Step{p.foldEntryStep()}}

	case StageMSA:
		p.msaReady = true
		return Outcome{Steps: []Step{p.foldStep()}}

	case StageFold:
		pred, ok := value.(fold.Prediction)
		if !ok {
			panic(fmt.Sprintf("pipeline %s: fold payload %T", p.ID, value))
		}
		return Outcome{Steps: []Step{p.metricsStep(pred)}}

	case StageMetrics:
		met, ok := value.(landscape.Metrics)
		if !ok {
			panic(fmt.Sprintf("pipeline %s: metrics payload %T", p.ID, value))
		}
		return p.decide(met)

	default:
		panic(fmt.Sprintf("pipeline %s: unknown stage %v", p.ID, stage))
	}
}

// decide is Stage 6: accept, retry with the next alternate, or terminate.
func (p *Pipeline) decide(met landscape.Metrics) Outcome {
	p.evals++
	accepted := true
	if p.adaptiveNow() {
		accepted = ga.Accept(p.best, met)
	}
	if accepted {
		cand := p.candidate()
		next := p.st.WithReceptorSequence(cand.Receptor)
		traj := p.record(met, true)
		traj.Result = next
		p.trajectories[len(p.trajectories)-1].Result = next
		p.st = next
		m := met
		p.best = &m
		p.cycle++
		if !p.params.ReuseMSA {
			p.msaReady = false
		}
		if p.cycle >= p.params.Cycles {
			p.finished = true
			return Outcome{Cycle: &traj, Finished: true}
		}
		return Outcome{Steps: []Step{p.mpnnStep()}, Cycle: &traj}
	}

	// Declined: try the next-ranked candidate if any retries remain.
	if p.tryIdx+1 < len(p.order) && p.tryIdx+1 <= p.params.MaxRetries {
		p.tryIdx++
		return Outcome{Steps: []Step{p.retryStep()}}
	}

	// Retries exhausted: record the declined cycle and terminate.
	traj := p.record(met, false)
	p.finished = true
	p.terminated = true
	return Outcome{Cycle: &traj, Finished: true, Terminated: true}
}

func (p *Pipeline) record(met landscape.Metrics, accepted bool) Trajectory {
	traj := Trajectory{
		PipelineID:    p.ID,
		Target:        p.target.Name,
		Cycle:         p.cycle + 1,
		Generation:    p.st.Generation + 1,
		CandidateRank: p.tryIdx,
		Evaluations:   p.evals,
		Metrics:       met,
		Accepted:      accepted,
		Sub:           p.Sub,
		Input:         p.st,
	}
	p.trajectories = append(p.trajectories, traj)
	return traj
}

// candidate returns the design currently under evaluation.
func (p *Pipeline) candidate() mpnn.Design {
	return p.designs[p.order[p.tryIdx]]
}

// foldEntryStep returns the first S4 step of a cycle: split mode runs (or
// reuses) the MSA task first; monolithic mode goes straight to the
// combined task.
func (p *Pipeline) foldEntryStep() Step {
	if p.params.SplitFold && !p.msaReady {
		return p.msaStep()
	}
	return p.foldStep()
}

// retryStep returns the S4 step for the next alternate: split mode reuses
// the cycle's MSA features; monolithic mode pays the full task again.
func (p *Pipeline) retryStep() Step {
	if p.params.SplitFold {
		return p.foldStep()
	}
	return p.foldStep() // monolithic task rebuilt with MSA phase included
}
