package main

// Self-test of the benchmark's correctness gates: each check accepts the
// program's real output and rejects a deliberately corrupted copy of it.
// Run with `go test` in this directory.

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"slices"
	"testing"

	"localdrf"
	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/service"
)

// smallTrace is a short trace of the syncp workload's shape, which has
// races and RA traffic from the first few thousand events, and its
// outcome under pred.
func smallTrace(t *testing.T, pred monitor.Predicate) ([]byte, traceOutcome) {
	t.Helper()
	data, err := encodeTrace(syncpShape(), 3, 50_000, nil, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := monitorPass(data, pred, 0, nil, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Reports) < 2 || ref.RA.Collected == 0 {
		t.Fatalf("trace too quiet to corrupt: %d reports, %+v", len(ref.Reports), ref.RA)
	}
	return data, ref
}

func TestTraceCheckRejectsCorruption(t *testing.T) {
	data, ref := smallTrace(t, monitor.PredSyncP)
	again, _, err := monitorPass(data, monitor.PredSyncP, 0, nil, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTrace(ref, again); err != nil {
		t.Fatalf("a second pass fails its check: %v", err)
	}
	corrupt := map[string]func(o *traceOutcome){
		"dropped report": func(o *traceOutcome) { o.Reports = o.Reports[1:] },
		"flipped access": func(o *traceOutcome) { o.Reports[0].WriteJ = !o.Reports[0].WriteJ },
		"RA collected":   func(o *traceOutcome) { o.RA.Collected++ },
		"RA peak":        func(o *traceOutcome) { o.RA.Peak-- },
		"event count":    func(o *traceOutcome) { o.Events-- },
	}
	for name, f := range corrupt {
		bad := again
		bad.Reports = slices.Clone(again.Reports)
		f(&bad)
		if checkTrace(ref, bad) == nil {
			t.Errorf("%s: checkTrace accepted a corrupted pass", name)
		}
		if checkGolden(fingerprint(1, len(data), ref), fingerprint(1, len(data), bad)) == nil {
			t.Errorf("%s: checkGolden accepted a corrupted pass", name)
		}
	}
}

func TestGoldensCoverTraceWorkloads(t *testing.T) {
	g, err := goldens()
	if err != nil {
		t.Fatal(err)
	}
	for name, shape := range traceShapes {
		want, ok := g[name]
		if !ok || want.Seed != goldenSeed || want.Events != uint64(shape().events) {
			t.Errorf("%s: golden %+v, want seed %d and %d events", name, want, goldenSeed, shape().events)
		}
	}
}

func TestSessionCheckRejectsCorruption(t *testing.T) {
	// racemond sessions run under happens-before.
	data, ref := smallTrace(t, monitor.PredHB)
	srv := service.New(service.Config{CheckpointDir: t.TempDir(), CheckpointEvery: 10_000})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	c := &service.Client{
		Addr:    ln.Addr().String(),
		Session: "selftest",
		Source:  func() (io.Reader, error) { return bytes.NewReader(data), nil },
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := sessionWant("selftest", ref)
	if err := checkSession(want, res); err != nil {
		t.Fatalf("the real session fails its check: %v", err)
	}
	corrupt := map[string]func(r *service.SessionResult){
		"dropped race":  func(r *service.SessionResult) { r.Races = r.Races[1:] },
		"race count":    func(r *service.SessionResult) { r.RaceCount++ },
		"flipped op":    func(r *service.SessionResult) { r.Races[0].OpI = opName(r.Races[0].OpI == "read") },
		"RA live":       func(r *service.SessionResult) { r.RALive++ },
		"events":        func(r *service.SessionResult) { r.Events-- },
		"other session": func(r *service.SessionResult) { r.Session = "other" },
	}
	for name, f := range corrupt {
		bad := *res
		bad.Races = slices.Clone(res.Races)
		f(&bad)
		if checkSession(want, &bad) == nil {
			t.Errorf("%s: checkSession accepted a corrupted result", name)
		}
	}
}

func TestModelChecksRejectCorruption(t *testing.T) {
	var tc litmus.Test
	for _, c := range litmus.Suite() {
		if len(c.Checks) > 0 && c.Checks[0].Want == litmus.Allowed {
			tc = c
			break
		}
	}
	if tc.Prog == nil {
		t.Fatal("no litmus test with an allowed outcome")
	}
	op, err := localdrf.OutcomesOpt(tc.Prog, localdrf.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ax, err := localdrf.OutcomesAxiomatic(tc.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOpAx(tc.Name, op, ax); err != nil {
		t.Fatal(err)
	}
	if err := checkVerdicts(tc, op); err != nil {
		t.Fatal(err)
	}
	// Drop the outcomes that witness the allowed check.
	witnessless := explore.NewSet()
	for _, o := range op.Outcomes() {
		if !tc.Checks[0].Pred(o) {
			witnessless.Add(o)
		}
	}
	if checkOpAx(tc.Name, witnessless, ax) == nil {
		t.Error("checkOpAx accepted an operational set missing outcomes")
	}
	if checkVerdicts(tc, witnessless) == nil {
		t.Error("checkVerdicts accepted a set without the allowed outcome's witness")
	}

	// FindRaces against the streaming monitor's reference.
	for k := 0; ; k++ {
		d, _, ok, err := selectDeep(progsynth.Random(subSeed(1, k), deepConfig()), nil, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || len(d.races) == 0 {
			continue
		}
		got, err := race.FindRaces(d.p, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReports(d.races, got); err != nil {
			t.Fatalf("FindRaces disagrees with the monitor reference: %v", err)
		}
		if checkReports(d.races, got[1:]) == nil {
			t.Error("checkReports accepted a FindRaces result missing a report")
		}
		return
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and the
// workloads and metrics this program runs and prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, want)
	}
	for _, c := range []struct {
		doc  []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, perfbench prints %d", len(c.doc), len(c.defs))
			continue
		}
		for i, m := range c.doc {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
