package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"impress/internal/core"
	"impress/internal/stats"
)

// Grid declares a sweep's comparison report as data. Results group by
// the key columns, which also fix the row order; each result is paired
// with its seed's baseline makespan; and every metric column carries a
// group aggregate for the table and a per-result cell for the CSV.
// Table and CSV render any Grid, so a new sweep report is one
// declaration.
type Grid struct {
	// Title heads the table: one or more complete lines.
	Title string
	// Only, when set, drops the results it rejects from table and CSV.
	Only func(*core.Result) bool
	// Baseline marks the results whose makespan is their seed's
	// baseline; nil means the grid has no baseline.
	Baseline func(*core.Result) bool
	// BaselineIsCell keeps baseline results in the grid as ordinary
	// rows (elastic's frozen split is itself a cell of the race).
	// Otherwise baselines form no table row, and their CSV rows take
	// each column's Base cell.
	BaselineIsCell bool
	// NoBaseline is printed under the title when no baseline ran.
	NoBaseline string
	// Cols are the columns in table and CSV order.
	Cols []Col
	// Footer, when set, renders lines after the table.
	Footer func([]*core.Result) string
}

// A Col is one column: a key column when Of is set, else a metric
// column. An empty Head or CSV header leaves it out of that output.
type Col struct {
	Head, CSV string
	// Of is a key column's table cell; results with equal key cells
	// share a table row.
	Of func(*core.Result) string
	// Rank orders a key column numerically (nil: by Of).
	Rank func(*core.Result) float64
	// Agg is a metric column's table cell over one group.
	Agg func([]Row) string
	// Cell is the CSV cell (nil: Of).
	Cell func(Row) string
	// Base is the CSV cell on baseline rows kept out of the grid ("":
	// Cell).
	Base string
}

// A Row is one result with its seed's baseline makespan in hours.
type Row struct {
	*core.Result
	Base    float64
	HasBase bool
}

func (c Col) csv(x Row, apart bool) string {
	switch {
	case apart && c.Base != "":
		return c.Base
	case c.Cell != nil:
		return c.Cell(x)
	}
	return c.Of(x.Result)
}

// heads lists the non-empty headers h picks from the columns.
func (g Grid) heads(h func(Col) string) []string {
	var out []string
	for _, c := range g.Cols {
		if h(c) != "" {
			out = append(out, h(c))
		}
	}
	return out
}

// rows pairs every kept result with its seed's baseline and reports
// whether any baseline ran.
func (g Grid) rows(results []*core.Result) ([]Row, bool) {
	base := make(map[uint64]float64)
	var rows []Row
	for _, r := range results {
		if r == nil || (g.Only != nil && !g.Only(r)) {
			continue
		}
		if g.Baseline != nil && g.Baseline(r) {
			base[r.Seed] = r.Makespan.Hours()
		}
		rows = append(rows, Row{Result: r})
	}
	for i := range rows {
		rows[i].Base, rows[i].HasBase = base[rows[i].Seed]
	}
	return rows, len(base) > 0
}

// apart reports whether r is a baseline kept out of the grid's cells.
func (g Grid) apart(r *core.Result) bool {
	return g.Baseline != nil && !g.BaselineIsCell && g.Baseline(r)
}

// Table renders one row per key group, aggregated over its results.
func (g Grid) Table(results []*core.Result) string {
	rows, hasBase := g.rows(results)
	groups := make(map[string][]Row)
	var firsts []*core.Result
	for _, x := range rows {
		if g.apart(x.Result) {
			continue
		}
		id := g.groupID(x.Result)
		if _, seen := groups[id]; !seen {
			firsts = append(firsts, x.Result)
		}
		groups[id] = append(groups[id], x)
	}
	sort.Slice(firsts, func(i, j int) bool { return g.less(firsts[i], firsts[j]) })

	t := NewTable(g.heads(func(c Col) string { return c.Head })...)
	for _, first := range firsts {
		rs := groups[g.groupID(first)]
		var cells []string
		for _, c := range g.Cols {
			switch {
			case c.Head == "":
			case c.Of != nil:
				cells = append(cells, c.Of(first))
			default:
				cells = append(cells, c.Agg(rs))
			}
		}
		t.AddRow(cells...)
	}

	var sb strings.Builder
	sb.WriteString(g.Title)
	if g.Baseline != nil && !hasBase {
		sb.WriteString(g.NoBaseline)
	}
	sb.WriteString(t.String())
	if g.Footer != nil {
		sb.WriteString(g.Footer(results))
	}
	return sb.String()
}

// groupID identifies r's key group: its key cells, plus the exact rank
// where one orders the key.
func (g Grid) groupID(r *core.Result) string {
	var sb strings.Builder
	for _, c := range g.Cols {
		if c.Of == nil {
			continue
		}
		sb.WriteString(c.Of(r))
		if c.Rank != nil {
			fmt.Fprintf(&sb, "@%x", math.Float64bits(c.Rank(r)))
		}
		sb.WriteByte(0)
	}
	return sb.String()
}

// less orders two groups by their key columns in declaration order.
func (g Grid) less(a, b *core.Result) bool {
	for _, c := range g.Cols {
		if c.Of == nil {
			continue
		}
		if c.Rank != nil {
			if ra, rb := c.Rank(a), c.Rank(b); ra != rb {
				return ra < rb
			}
		}
		if oa, ob := c.Of(a), c.Of(b); oa != ob {
			return oa < ob
		}
	}
	return false
}

// CSV writes one row per result, in input order — the machine-readable
// companion of Table.
func (g Grid) CSV(w io.Writer, results []*core.Result) error {
	head := g.heads(func(c Col) string { return c.CSV })
	if _, err := fmt.Fprintln(w, strings.Join(head, ",")); err != nil {
		return err
	}
	rows, _ := g.rows(results)
	for _, x := range rows {
		apart := g.apart(x.Result)
		cells := make([]string, 0, len(head))
		for _, c := range g.Cols {
			if c.CSV != "" {
				cells = append(cells, c.csv(x, apart))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Aggregates and cells the grids are declared from.

// runs counts a group's results.
func runs(rs []Row) string { return fmt.Sprintf("%d", len(rs)) }

// median renders the median of f over a group.
func median(format string, f func(Row) float64) func([]Row) string {
	return func(rs []Row) string { return fmt.Sprintf(format, stats.Median(collect(rs, f))) }
}

// percent renders 100× the median of a fraction over a group.
func percent(f func(Row) float64) func([]Row) string {
	return func(rs []Row) string { return fmt.Sprintf("%.1f", 100*stats.Median(collect(rs, f))) }
}

// total renders the sum of an integer count over a group.
func total(f func(Row) int) func([]Row) string {
	return func(rs []Row) string {
		n := 0
		for _, x := range rs {
			n += f(x)
		}
		return fmt.Sprintf("%d", n)
	}
}

// totalf renders the sum of f over a group, divided by div.
func totalf(format string, div float64, f func(Row) float64) func([]Row) string {
	return func(rs []Row) string { return fmt.Sprintf(format, stats.Sum(collect(rs, f))/div) }
}

// ratioCol is a ratio to the baseline: in the table the median over
// the group's results that have a baseline ("n/a" when none do), in the
// CSV each result's own ratio ("" without a baseline), and base on
// baseline rows.
func ratioCol(head, format, csv, base string, f func(Row) (float64, bool)) Col {
	agg := func(rs []Row) string {
		var vs []float64
		for _, x := range rs {
			if v, ok := f(x); ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return "n/a"
		}
		return fmt.Sprintf(format, stats.Median(vs))
	}
	cell := func(x Row) string {
		if v, ok := f(x); ok {
			return fmt.Sprintf("%.4f", v)
		}
		return ""
	}
	return Col{Head: head, Agg: agg, CSV: csv, Cell: cell, Base: base}
}

// inflation is makespan over the baseline makespan.
func inflation(x Row) (float64, bool) {
	return x.Makespan.Hours() / x.Base, x.HasBase && x.Base > 0
}

// speedup is the baseline makespan over makespan.
func speedup(x Row) (float64, bool) {
	h := x.Makespan.Hours()
	return x.Base / h, x.HasBase && h > 0
}

func collect(rs []Row, f func(Row) float64) []float64 {
	out := make([]float64, len(rs))
	for i, x := range rs {
		out[i] = f(x)
	}
	return out
}

// f4 is a CSV cell of f at four decimals.
func f4(f func(Row) float64) func(Row) string {
	return func(x Row) string { return fmt.Sprintf("%.4f", f(x)) }
}

// count is a CSV cell of an integer count.
func count(f func(Row) int) func(Row) string {
	return func(x Row) string { return fmt.Sprintf("%d", f(x)) }
}

// fmtWait renders a queue-wait duration at minute precision.
func fmtWait(d time.Duration) string {
	return fmt.Sprintf("%.1fm", d.Minutes())
}

// DurLabel renders a duration compactly for labels: Duration.String
// without zero trailing units — "45s", "10m", "1h", "1h30m" — and "0"
// for zero.
func DurLabel(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}
