package main

// Correctness checks. Every timed pass or session is compared with a
// reference fixed before timing, and one that differs counts as failed.
// Each check is a plain function of the output it judges, so the
// self-test (checks_test.go) can show it rejects a corrupted output.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"localdrf/internal/explore"
	"localdrf/internal/litmus"
	"localdrf/internal/monitor"
	"localdrf/internal/race"
	"localdrf/internal/service"
)

// traceOutcome is what one monitoring pass over a trace produces.
type traceOutcome struct {
	Events  uint64
	Reports []race.Report
	RA      monitor.RAStats
}

// checkTrace compares a pass's events, report set and RA retention
// statistics with the reference.
func checkTrace(want, got traceOutcome) error {
	if got.Events != want.Events {
		return fmt.Errorf("monitored %d events, want %d", got.Events, want.Events)
	}
	if got.RA != want.RA {
		return fmt.Errorf("RAStats %+v, want %+v", got.RA, want.RA)
	}
	return checkReports(want.Reports, got.Reports)
}

// checkReports compares two canonical (race.SortReports) report sets.
func checkReports(want, got []race.Report) error {
	if !race.ReportsEqual(got, want) {
		return fmt.Errorf("report set differs: %d classes, want %d", len(got), len(want))
	}
	return nil
}

// golden is the stored fingerprint of a trace workload's default-seed
// pass. It was checked once against the brute-force predict.Races
// decider over the whole trace (see writeGolden).
type golden struct {
	Seed          int64  `json:"seed"`
	Events        uint64 `json:"events"`
	EncodedBytes  int    `json:"encoded_bytes"`
	Classes       int    `json:"classes"`
	ReportsSHA256 string `json:"reports_sha256"`
	RALive        int    `json:"ra_live"`
	RAPeak        int    `json:"ra_peak"`
	RACollected   uint64 `json:"ra_collected"`
}

//go:embed golden.json
var goldenJSON []byte

// goldens maps a trace workload's name to its default-seed fingerprint.
func goldens() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func fingerprint(seed int64, encoded int, o traceOutcome) golden {
	h := sha256.New()
	for _, r := range o.Reports {
		fmt.Fprintf(h, "%s %d %d %t %t\n", r.Loc, r.ThreadI, r.ThreadJ, r.WriteI, r.WriteJ)
	}
	return golden{
		Seed: seed, Events: o.Events, EncodedBytes: encoded, Classes: len(o.Reports),
		ReportsSHA256: hex.EncodeToString(h.Sum(nil)),
		RALive:        o.RA.Live, RAPeak: o.RA.Peak, RACollected: o.RA.Collected,
	}
}

func checkGolden(want, got golden) error {
	if got != want {
		return fmt.Errorf("default-seed pass %+v, golden %+v", got, want)
	}
	return nil
}

// sessionWant is the done-line result racemond must return for a trace
// whose sequential-monitor outcome is o, in canonical JSON.
func sessionWant(session string, o traceOutcome) []byte {
	res := service.SessionResult{
		Session: session, Events: o.Events, RaceCount: len(o.Reports),
		Races:  make([]service.RaceJSON, 0, len(o.Reports)),
		RALive: o.RA.Live, RAPeak: o.RA.Peak, RACollected: o.RA.Collected,
	}
	for _, r := range o.Reports {
		res.Races = append(res.Races, service.RaceJSON{
			Loc: string(r.Loc), ThreadI: r.ThreadI, ThreadJ: r.ThreadJ,
			OpI: opName(r.WriteI), OpJ: opName(r.WriteJ),
		})
	}
	return res.CanonicalJSON()
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func checkSession(want []byte, got *service.SessionResult) error {
	if b := got.CanonicalJSON(); !bytes.Equal(b, want) {
		return fmt.Errorf("session %s: result differs from the sequential monitor (%d races, want %d bytes of JSON, got %d)",
			got.Session, got.RaceCount, len(want), len(b))
	}
	return nil
}

// checkOpAx is thms. 15/16: the operational and axiomatic outcome sets
// of a program are equal.
func checkOpAx(name string, op, ax *explore.Set) error {
	if !op.Equal(ax) {
		return fmt.Errorf("%s: operational and axiomatic outcomes differ (op-only %d, ax-only %d)",
			name, len(op.Minus(ax)), len(ax.Minus(op)))
	}
	return nil
}

// checkVerdicts evaluates a litmus test's catalogued verdicts on an
// outcome set.
func checkVerdicts(t litmus.Test, set *explore.Set) error {
	for _, c := range t.Checks {
		got := litmus.Forbidden
		if set.Exists(c.Pred) {
			got = litmus.Allowed
		}
		if got != c.Want {
			return fmt.Errorf("litmus %s: %s is %v, want %v", t.Name, c.Name, got, c.Want)
		}
	}
	return nil
}
