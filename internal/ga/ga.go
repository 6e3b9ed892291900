// Package ga implements the genetic-algorithm machinery of the paper's
// adaptive protocol: candidate selection orders (Stage 2 / Stage 6),
// acceptance rules (Stage 6's compare-and-prune), and the coordinator's
// global result pool ("the coordinator maintains a global perspective on
// each pipeline's results and the quality of the resulting sequences").
package ga

import (
	"encoding/json"
	"fmt"
	"sort"

	"impress/internal/landscape"
	"impress/internal/mpnn"
	"impress/internal/xrand"
)

// SelectionPolicy decides the order in which Stage 4 tries candidate
// sequences from a Stage-1 design batch.
type SelectionPolicy int

const (
	// SelectBestLogLikelihood ranks candidates by MPNN log-likelihood,
	// best first — the IM-RP protocol (Stage 2).
	SelectBestLogLikelihood SelectionPolicy = iota
	// SelectRandom shuffles candidates — CONT-V "chose one randomly".
	SelectRandom
	// SelectOracle ranks by true landscape quality — a cheating upper
	// bound used only by ablation benches.
	SelectOracle
)

func (p SelectionPolicy) String() string {
	switch p {
	case SelectBestLogLikelihood:
		return "best-loglik"
	case SelectRandom:
		return "random"
	case SelectOracle:
		return "oracle"
	default:
		return fmt.Sprintf("SelectionPolicy(%d)", int(p))
	}
}

// TryOrder returns candidate indices in the order the protocol should try
// them. oracle scores a design's true quality and is consulted only by
// SelectOracle (pass nil otherwise). seed drives SelectRandom.
func TryOrder(policy SelectionPolicy, designs []mpnn.Design, oracle func(mpnn.Design) float64, seed uint64) []int {
	idx := make([]int, len(designs))
	for i := range idx {
		idx[i] = i
	}
	switch policy {
	case SelectBestLogLikelihood:
		sort.SliceStable(idx, func(a, b int) bool {
			return designs[idx[a]].LogLikelihood > designs[idx[b]].LogLikelihood
		})
	case SelectRandom:
		xrand.New(xrand.Derive(seed, "select-random")).ShuffleInts(idx)
	case SelectOracle:
		if oracle == nil {
			panic("ga: SelectOracle requires an oracle")
		}
		scores := make([]float64, len(designs))
		for i, d := range designs {
			scores[i] = oracle(d)
		}
		sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	default:
		panic(fmt.Sprintf("ga: unknown policy %d", int(policy)))
	}
	return idx
}

// Accept implements Stage 6's acceptance rule: the first result of a
// trajectory is always accepted; afterwards a design must improve the
// composite quality over the previously accepted one.
func Accept(prev *landscape.Metrics, cur landscape.Metrics) bool {
	if prev == nil {
		return true
	}
	return cur.BetterThan(*prev)
}

// Entry is one trajectory result registered with the coordinator's pool.
type Entry struct {
	Target    string
	Iteration int // 1-based design cycle the result belongs to
	Metrics   landscape.Metrics
	Sub       bool // produced by a sub-pipeline
}

// Pool is the coordinator's global view of design quality across all
// pipelines. It backs the decision-making step: "is this result
// low-quality relative to everything seen so far?"
type Pool struct {
	entries []Entry
	best    map[string]landscape.Metrics
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{best: make(map[string]landscape.Metrics)}
}

// Add registers a result.
func (p *Pool) Add(e Entry) {
	p.entries = append(p.entries, e)
	if cur, ok := p.best[e.Target]; !ok || e.Metrics.BetterThan(cur) {
		p.best[e.Target] = e.Metrics
	}
}

// Len returns the number of registered results.
func (p *Pool) Len() int { return len(p.entries) }

// Best returns the best metrics seen for a target.
func (p *Pool) Best(target string) (landscape.Metrics, bool) {
	m, ok := p.best[target]
	return m, ok
}

// Targets returns the distinct target names seen, sorted.
func (p *Pool) Targets() []string {
	out := make([]string, 0, len(p.best))
	for t := range p.best {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// QualityQuantile returns the q-quantile of composite quality across all
// registered results (NaN-free: returns 0 for an empty pool).
func (p *Pool) QualityQuantile(q float64) float64 {
	if len(p.entries) == 0 {
		return 0
	}
	vals := make([]float64, len(p.entries))
	for i, e := range p.entries {
		vals[i] = e.Metrics.Quality()
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[lo]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// IsLowQuality reports whether m falls below the pool's q-quantile —
// the trigger for spawning a refinement sub-pipeline. A pool smaller than
// minSamples never flags anything (avoids overreacting to the first few
// results).
func (p *Pool) IsLowQuality(m landscape.Metrics, q float64, minSamples int) bool {
	if len(p.entries) < minSamples {
		return false
	}
	return m.Quality() < p.QualityQuantile(q)
}

// IsLowQualityAtIteration compares m against its same-iteration peers
// across targets rather than the whole pool. Because every pipeline
// improves monotonically, a whole-pool comparison would almost never flag
// late-cycle results; the paper's decision step asks the relevant
// question — is this design lagging the cohort at the same point of its
// trajectory?
func (p *Pool) IsLowQualityAtIteration(m landscape.Metrics, iteration int, q float64, minSamples int) bool {
	var vals []float64
	for _, e := range p.entries {
		if e.Iteration == iteration {
			vals = append(vals, e.Metrics.Quality())
		}
	}
	if len(vals) < minSamples {
		return false
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	thresh := vals[lo]
	if lo+1 < len(vals) {
		thresh = vals[lo]*(1-frac) + vals[lo+1]*frac
	}
	return m.Quality() < thresh
}

// IterationMetrics returns all metrics recorded for a given 1-based
// iteration, in registration order — the per-iteration pools behind
// Figs. 2 and 3.
func (p *Pool) IterationMetrics(iter int) []landscape.Metrics {
	var out []landscape.Metrics
	for _, e := range p.entries {
		if e.Iteration == iter {
			out = append(out, e.Metrics)
		}
	}
	return out
}

// Entries returns a copy of all registered entries.
func (p *Pool) Entries() []Entry {
	return append([]Entry(nil), p.entries...)
}

// MarshalJSON encodes the pool as its entry list in registration order.
func (p *Pool) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.entries)
}

// UnmarshalJSON rebuilds the pool from an entry list, re-deriving the
// per-target best index through Add.
func (p *Pool) UnmarshalJSON(data []byte) error {
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	*p = *NewPool()
	for _, e := range entries {
		p.Add(e)
	}
	return nil
}
