package report

import (
	"fmt"
	"io"

	"impress/internal/core"
	"impress/internal/stats"
)

// JainOf returns Jain's fairness index over a service result's per-tenant
// slowdowns: 1 when the shared cluster stretched every tenant equally,
// approaching 1/n when admission control sacrificed some tenants to
// others. A single-tenant service is trivially fair (1).
func JainOf(r *core.Result) float64 {
	slowdowns := make([]float64, len(r.Tenants))
	for i, ts := range r.Tenants {
		slowdowns[i] = ts.Slowdown
	}
	return stats.JainIndex(slowdowns)
}

// FairnessCSV writes one row per tenant per service run — the
// machine-readable companion of the Fairness grid, with the
// service-level Jain index repeated on each of its tenant rows.
func FairnessCSV(w io.Writer, results []*core.Result) error {
	if _, err := fmt.Fprintln(w, "admission,seed,jain,tenant,weight,nodes,arrived_h,admitted_h,finished_h,"+
		"wait_h,runtime_h,slowdown,trajectories,tasks,reclaimed,granted,makespan_h"); err != nil {
		return err
	}
	for _, r := range results {
		if r == nil || len(r.Tenants) == 0 {
			continue
		}
		jain := JainOf(r)
		for _, ts := range r.Tenants {
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%s,%.2f,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%.4f\n",
				r.Admission, r.Seed, jain, ts.Name, ts.Weight, ts.Nodes,
				ts.Arrived.Hours(), ts.Admitted.Hours(), ts.Finished.Hours(),
				ts.Wait.Hours(), ts.Runtime.Hours(), ts.Slowdown,
				ts.Trajectories, ts.Tasks, ts.Reclaimed, ts.Granted,
				r.Makespan.Hours()); err != nil {
				return err
			}
		}
	}
	return nil
}
