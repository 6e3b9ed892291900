// Package report renders campaign results in the shapes the paper
// publishes them: Table I's comparison row pair, the per-iteration metric
// bars of Figs. 2 and 3 (medians with half-σ error bars), and the
// utilization time series plus phase breakdowns of Figs. 4 and 5. All
// output is plain text (aligned tables and ASCII charts) plus CSV for
// external plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"impress/internal/core"
	"impress/internal/simclock"
	"impress/internal/trace"
)

// Table is a minimal aligned-column text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with two-space column gaps.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if l := len([]rune(c)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// TableI renders the paper's Table I for a CONT-V / IM-RP result pair:
// pipeline counts, trajectories, utilization, time, and metric net deltas
// (relative improvements in parentheses, as in the paper).
func TableI(ctrl, adpt *core.Result) string {
	t := NewTable("Approach", "# PL", "# Sub-PL", "# Structures", "Trajectories",
		"CPU %", "GPU %", "Time (h)", "Makespan (h)",
		"pTM Net Δ", "pLDDT Net Δ", "pAE Net Δ")

	row := func(r *core.Result, base *core.Result) []string {
		sub := "N/A"
		if r.Approach == "IM-RP" {
			sub = fmt.Sprintf("%d", r.SubPipelines)
		}
		rel := func(metric core.MetricSeries, lowerBetter bool) string {
			d := r.NetDelta(metric)
			if base == nil {
				return fmt.Sprintf("%.3g (–)", d)
			}
			b := base.NetDelta(metric)
			num, den := d, b
			if lowerBetter {
				num, den = -d, -b
			}
			if den == 0 {
				return fmt.Sprintf("%.3g", d)
			}
			return fmt.Sprintf("%.3g (%+.1f%%)", d, (num-den)/math.Abs(den)*100)
		}
		return []string{
			r.Approach,
			fmt.Sprintf("%d", r.BasePipelines),
			sub,
			fmt.Sprintf("%d", len(r.Targets)),
			fmt.Sprintf("%d", r.TrajectoryCount()),
			fmt.Sprintf("%.1f%%", r.CPUUtilization*100),
			fmt.Sprintf("%.1f%%", r.GPUUtilization*100),
			fmt.Sprintf("%.1f", r.AggregateTaskTime.Hours()),
			fmt.Sprintf("%.1f", r.Makespan.Hours()),
			rel(core.PTMOf, false),
			rel(core.PLDDTOf, false),
			rel(core.IPAEOf, true),
		}
	}
	t.AddRow(row(ctrl, nil)...)
	t.AddRow(row(adpt, ctrl)...)
	return t.String()
}

// metricSpec describes one figure panel.
type metricSpec struct {
	name   string
	better string
	f      core.MetricSeries
}

var figureMetrics = []metricSpec{
	{"pLDDT", "higher is better", core.PLDDTOf},
	{"pTM", "higher is better", core.PTMOf},
	{"Interchain pAE", "lower is better", core.IPAEOf},
}

// IterationFigure renders per-iteration medians with half-σ error bars
// for one or two results (Fig. 2 compares CONT-V and IM-RP; Fig. 3 shows
// the expanded IM-RP run alone). iterations bounds the x axis.
func IterationFigure(title string, iterations int, results ...*core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s\n", title, strings.Repeat("=", len([]rune(title))))
	for _, spec := range figureMetrics {
		fmt.Fprintf(&sb, "\n%s (%s)\n", spec.name, spec.better)
		t := NewTable(append([]string{"Iteration"}, labelsOf(results)...)...)
		for it := 1; it <= iterations; it++ {
			cells := []string{fmt.Sprintf("%d", it)}
			for _, r := range results {
				med, std := r.IterationSummary(it, spec.f)
				cells = append(cells, fmt.Sprintf("%.2f ± %.2f", med, std/2))
			}
			t.AddRow(cells...)
		}
		sb.WriteString(t.String())
		// Bar panel for the first result pair, scaled within the metric.
		sb.WriteString(iterationBars(spec, iterations, results))
	}
	return sb.String()
}

func labelsOf(results []*core.Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Approach + " median ± σ/2"
	}
	return out
}

// iterationBars renders a compact ASCII bar panel: one row per
// (iteration, approach).
func iterationBars(spec metricSpec, iterations int, results []*core.Result) string {
	const width = 42
	lo, hi := 1e18, -1e18
	type bar struct {
		label string
		v     float64
	}
	var bars []bar
	for it := 1; it <= iterations; it++ {
		for _, r := range results {
			med, _ := r.IterationSummary(it, spec.f)
			bars = append(bars, bar{fmt.Sprintf("it%d %-6s", it, r.Approach), med})
			if med < lo {
				lo = med
			}
			if med > hi {
				hi = med
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	lo -= span * 0.15 // keep the smallest bar visible
	var sb strings.Builder
	for _, b := range bars {
		n := int(float64(width) * (b.v - lo) / (hi - lo))
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(&sb, "  %s %s %.2f\n", b.label, strings.Repeat("█", n), b.v)
	}
	return sb.String()
}

// UtilizationFigure renders Fig. 4 / Fig. 5: busy-CPU and busy-GPU time
// series over the campaign, average utilization, and the runtime phase
// breakdown (Bootstrap / Exec setup / Running).
func UtilizationFigure(title string, r *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s\n", title, strings.Repeat("=", len([]rune(title))))
	fmt.Fprintf(&sb, "Resource: %d cores, %d GPUs; makespan %.2f h; aggregate task time %.2f h\n",
		r.TotalCores, r.TotalGPUs, r.Makespan.Hours(), r.AggregateTaskTime.Hours())
	fmt.Fprintf(&sb, "Average utilization: CPU %.1f%%, GPU %.1f%%\n",
		r.CPUUtilization*100, r.GPUUtilization*100)

	end := simclock.Time(r.Makespan)
	sb.WriteString("\nBusy CPU cores over time\n")
	sb.WriteString(seriesChart(r.CPUSeries, end, r.TotalCores, 8))
	sb.WriteString("\nBusy GPUs over time\n")
	sb.WriteString(seriesChart(r.GPUSeries, end, r.TotalGPUs, 4))

	sb.WriteString("\nRuntime phases\n")
	t := NewTable("Phase", "Total", "Share of makespan")
	for _, name := range []string{trace.PhaseBootstrap, trace.PhaseExecSetup, trace.PhaseRunning} {
		d := r.Phases[name]
		share := float64(d) / float64(r.Makespan) * 100
		t.AddRow(name, fmt.Sprintf("%.2f h", d.Hours()), fmt.Sprintf("%.1f%%", share))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// seriesChart renders a step series as an ASCII area chart: rows from
// capacity down to zero, columns resampled across the makespan.
func seriesChart(series []trace.Point, end simclock.Time, capacity, rows int) string {
	const cols = 72
	samples := trace.Resample(series, 0, end, cols)
	if rows < 2 {
		rows = 2
	}
	var sb strings.Builder
	for row := rows; row >= 1; row-- {
		threshold := float64(capacity) * float64(row) / float64(rows)
		label := fmt.Sprintf("%4.0f |", threshold)
		sb.WriteString(label)
		for _, v := range samples {
			if v >= threshold-1e-9 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("   0 +" + strings.Repeat("-", cols) + "\n")
	sb.WriteString(fmt.Sprintf("      0h%*s\n", cols-2, fmt.Sprintf("%.1fh", end.Hours())))
	return sb.String()
}

// IterationCSV writes the per-iteration medians/σ for every metric and
// result, one row per (iteration, approach).
func IterationCSV(w io.Writer, iterations int, results ...*core.Result) error {
	if _, err := fmt.Fprintln(w, "approach,iteration,plddt_median,plddt_std,ptm_median,ptm_std,ipae_median,ipae_std,n"); err != nil {
		return err
	}
	for _, r := range results {
		for it := 1; it <= iterations; it++ {
			pm, ps := r.IterationSummary(it, core.PLDDTOf)
			tm, ts := r.IterationSummary(it, core.PTMOf)
			am, as := r.IterationSummary(it, core.IPAEOf)
			n := len(r.Pool.IterationMetrics(it))
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d\n",
				r.Approach, it, pm, ps, tm, ts, am, as, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesCSV writes the busy-resource step series of a result.
func SeriesCSV(w io.Writer, r *core.Result) error {
	if _, err := fmt.Fprintln(w, "approach,resource,t_hours,busy"); err != nil {
		return err
	}
	write := func(resource string, series []trace.Point) error {
		for _, p := range series {
			if _, err := fmt.Fprintf(w, "%s,%s,%.6f,%d\n", r.Approach, resource, p.T.Hours(), p.Value); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("cpu", r.CPUSeries); err != nil {
		return err
	}
	return write("gpu", r.GPUSeries)
}

// Summary renders a one-paragraph textual summary of a campaign.
func Summary(r *core.Result) string {
	return fmt.Sprintf(
		"%s: %d base pipeline(s), %d sub-pipeline(s), %d trajectories, %d AlphaFold evaluations, "+
			"%d tasks; CPU %.1f%%, GPU %.1f%%; makespan %.2f h, aggregate task time %.2f h; "+
			"net Δ pLDDT %+.2f, pTM %+.3f, ipAE %+.2f",
		r.Approach, r.BasePipelines, r.SubPipelines, r.TrajectoryCount(), r.Evaluations,
		r.TaskCount, r.CPUUtilization*100, r.GPUUtilization*100,
		r.Makespan.Hours(), r.AggregateTaskTime.Hours(),
		r.NetDelta(core.PLDDTOf), r.NetDelta(core.PTMOf), r.NetDelta(core.IPAEOf))
}
