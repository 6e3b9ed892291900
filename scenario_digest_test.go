package impress_test

// Scenario digest layer: every registered scenario is built at a pinned
// seed and reduced size, run on two workers, and its observable output —
// each outcome's name and result JSON (once with task records, once
// without), the scenario's text report, and its CSV report — is hashed
// with SHA-256 and compared against
// testdata/golden/scenario_digests.golden. A refactor that shifts any
// scenario's bytes, even consistently from run to run, fails here. Each
// result JSON must also survive ReadResultJSON and a second write
// byte for byte, so the decoder is pinned to the encoder.
//
// mega-screen is pinned through its only code path — the screen scenario
// on the split pilot pair — because its 128-target floor alone would
// dominate the suite's run time.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestScenarioDigests .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"impress"
)

const scenarioDigestPath = "testdata/golden/scenario_digests.golden"

// digestParams is the pinned size every scenario is built at.
var digestParams = impress.ScenarioParams{Seed: 42, Seeds: 1, Targets: 2, Tenants: 2}

// scenarioDigests runs one scenario and returns its digest lines:
// "<label> outcomes|outcomes-notasks|report|csv <sha256>".
func scenarioDigests(t *testing.T, label string, sc impress.Scenario, p impress.ScenarioParams) []string {
	t.Helper()
	cs, err := sc.Build(p)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	outs := impress.RunCampaigns(cs, 2)
	var results []*impress.Result
	outcomes, notasks := sha256.New(), sha256.New()
	for _, o := range outs {
		fmt.Fprintf(outcomes, "== %s\n", o.Name)
		fmt.Fprintf(notasks, "== %s\n", o.Name)
		if o.Err != nil {
			fmt.Fprintf(outcomes, "error %v\n", o.Err)
			fmt.Fprintf(notasks, "error %v\n", o.Err)
			continue
		}
		for _, m := range []struct {
			h            hash.Hash
			includeTasks bool
		}{{outcomes, true}, {notasks, false}} {
			js := roundTripJSON(t, label+" "+o.Name, o.Result, m.includeTasks)
			m.h.Write(js)
		}
		results = append(results, o.Result)
	}
	rep, csv := sha256.New(), sha256.New()
	if sc.Report != nil {
		fmt.Fprint(rep, sc.Report(results))
	}
	if sc.ReportCSV != nil {
		if err := sc.ReportCSV(csv, results); err != nil {
			t.Fatalf("%s: report CSV: %v", label, err)
		}
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	return []string{
		fmt.Sprintf("%s outcomes %s", label, sum(outcomes)),
		fmt.Sprintf("%s outcomes-notasks %s", label, sum(notasks)),
		fmt.Sprintf("%s report %s", label, sum(rep)),
		fmt.Sprintf("%s csv %s", label, sum(csv)),
	}
}

// roundTripJSON writes r's result JSON, checks that reading it back and
// writing it again gives the same bytes, and returns them.
func roundTripJSON(t *testing.T, name string, r *impress.Result, includeTasks bool) []byte {
	t.Helper()
	var first, second bytes.Buffer
	if err := impress.WriteResultJSON(&first, r, includeTasks); err != nil {
		t.Fatalf("%s: result JSON (tasks %v): %v", name, includeTasks, err)
	}
	loaded, err := impress.ReadResultJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("%s: reading result JSON (tasks %v): %v", name, includeTasks, err)
	}
	if err := impress.WriteResultJSON(&second, loaded, includeTasks); err != nil {
		t.Fatalf("%s: rewriting result JSON (tasks %v): %v", name, includeTasks, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("%s: result JSON (tasks %v) changed across read and rewrite", name, includeTasks)
	}
	return first.Bytes()
}

func TestScenarioDigests(t *testing.T) {
	var got []string
	for _, sc := range impress.Scenarios() {
		p := digestParams
		label := sc.Name
		if sc.Name == "mega-screen" {
			screen, ok := impress.LookupScenario("screen")
			if !ok {
				t.Fatal("screen scenario not registered")
			}
			sc = screen
			p.SplitPilots = true
			label = "mega-screen(screen+split)"
		}
		got = append(got, scenarioDigests(t, label, sc, p)...)
	}
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(scenarioDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioDigestPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", scenarioDigestPath, len(got))
		return
	}
	raw, err := os.ReadFile(scenarioDigestPath)
	if err != nil {
		t.Fatalf("reading digests: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	want := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[line] = true
	}
	have := make(map[string]bool)
	for _, line := range got {
		have[line] = true
		if !want[line] {
			t.Errorf("digest changed or new: %s", line)
		}
	}
	for line := range want {
		if !have[line] {
			t.Errorf("digest missing: %s", line)
		}
	}
	if t.Failed() {
		t.Log("scenario output must stay byte-identical; regenerate only for intentional changes")
	}
}
