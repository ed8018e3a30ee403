package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"localdrf/internal/monitor"
)

// parseCase is one command line for parseConfig and either the config
// fields it must yield, a warning it must print (racemon proceeds), or an
// error it must fail with (racemon exits 2).
type parseCase struct {
	name    string
	args    []string
	check   func(config) bool // nil: no field expectations
	warnHas string
	errHas  string
}

func runParseCases(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, tc := range cases {
		c, warnings, err := parseConfig(tc.args)
		switch {
		case tc.errHas != "":
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.errHas)
			}
			continue
		case err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		warned := strings.Join(warnings, "\n")
		if tc.warnHas == "" && warned != "" {
			t.Errorf("%s: unexpected warning %q", tc.name, warned)
		}
		if tc.warnHas != "" && !strings.Contains(warned, tc.warnHas) {
			t.Errorf("%s: warnings %q do not mention %q", tc.name, warned, tc.warnHas)
		}
		if tc.check != nil && !tc.check(c) {
			t.Errorf("%s: config %+v", tc.name, c)
		}
	}
}

// TestParseConfig pins the general flag rules; the -static-prefilter and
// -parsers rules have tests of their own below.
func TestParseConfig(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "defaults", args: nil, check: func(c config) bool {
			return c.gen.events == 1_000_000 && c.shards == 1 && c.parsers == 1 &&
				c.format == monitor.BinaryV2 && c.spec.Pred == monitor.PredHB
		}},
		{name: "wire 1 keeps v1", args: []string{"-emit", "t", "-wire", "1"},
			check: func(c config) bool { return c.format == monitor.Binary }},
		{name: "text format", args: []string{"-emit", "t", "-format", "text"},
			check: func(c config) bool { return c.format == monitor.Text }},
		{name: "predicate parsed", args: []string{"-predicate", "short:64"},
			check: func(c config) bool { return c.spec.Pred == monitor.PredShort && c.spec.K == 64 }},
		{name: "generate checkpoints", args: []string{"-shards", "4", "-checkpoint", "c", "-checkpoint-at", "9"},
			check: func(c config) bool { return c.ck == ckParams{file: "c", at: 9} && c.shards == 4 }},
		{name: "stream flag removed", args: []string{"-stream"}, errHas: "-stream"},
		{name: "pipeline flag removed", args: []string{"-pipeline"}, errHas: "-pipeline"},
		{name: "bad policy", args: []string{"-policy", "lifo"}, errHas: "unknown policy"},
		{name: "bad format", args: []string{"-format", "xml"}, errHas: "unknown trace format"},
		{name: "bad predicate", args: []string{"-predicate", "lockset"}, errHas: "unknown predicate"},
		{name: "zero events", args: []string{"-events", "0"}, errHas: "must be ≥ 1"},
		{name: "zero shards", args: []string{"-shards", "0"}, errHas: "must be ≥ 1"},
		{name: "negative ra", args: []string{"-ra", "-1"}, errHas: "-ra ≥ 0"},
		{name: "zero parsers", args: []string{"-parsers", "0"}, errHas: "-parsers must be ≥ 1"},
		{name: "negative skew", args: []string{"-skew", "-1"}, errHas: "-skew must be ≥ 0"},
		{name: "bad wire", args: []string{"-wire", "3"}, errHas: "-wire must be 1 or 2"},
		{name: "trace and emit", args: []string{"-trace", "t", "-emit", "u"}, errHas: "mutually exclusive"},
		{name: "resume needs trace", args: []string{"-resume", "s"}, errHas: "needs -trace"},
		{name: "checkpoint-at needs checkpoint", args: []string{"-checkpoint-at", "5"}, errHas: "needs -checkpoint"},
		{name: "emit cannot checkpoint", args: []string{"-emit", "t", "-checkpoint", "c"}, errHas: "-emit does not monitor"},
		{name: "update-golden needs golden", args: []string{"-update-golden"}, errHas: "needs -golden"},
		{name: "emit has no golden", args: []string{"-emit", "t", "-golden", "g"}, errHas: "no report set"},
		{name: "linger needs addr", args: []string{"-stats-linger", "1s"}, errHas: "needs -stats-addr"},
		{name: "negative private locs", args: []string{"-private-locs", "-1"}, errHas: "-private-locs"},
		{name: "private pct range", args: []string{"-private-pct", "101"}, errHas: "-private-pct"},
		{name: "emit has no predicate", args: []string{"-emit", "t", "-predicate", "syncp"}, errHas: "-predicate has no effect"},
	})
}

// TestStaticFilterDecision pins -static-prefilter: it filters generated
// traces, is an error with -emit or a plain -trace, and only warns on
// -trace -resume (the resumed trace runs unfiltered).
func TestStaticFilterDecision(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "prefilter generated", args: []string{"-static-prefilter"},
			check: func(c config) bool { return c.gen.prefilter }},
		{name: "prefilter off on resume", args: []string{"-trace", "t", "-resume", "s"}},
		{name: "prefilter with emit", args: []string{"-static-prefilter", "-emit", "t"}, errHas: "cannot be used with -emit"},
		{name: "prefilter with trace", args: []string{"-static-prefilter", "-trace", "t"}, errHas: "cannot be used with -trace"},
		{name: "prefilter on resume warns", args: []string{"-static-prefilter", "-trace", "t", "-resume", "s"}, warnHas: "unfiltered"},
	})
}

// TestParallelParseDecision pins -parsers: it is honoured on -trace, but
// -checkpoint and -resume need the sequential reader, so they drop it to 1
// with a warning; -parsers 1 never warns.
func TestParallelParseDecision(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "parsers sequential by default", args: []string{"-trace", "t"},
			check: func(c config) bool { return c.parsers == 1 }},
		{name: "parsers parallel", args: []string{"-trace", "t", "-parsers", "4"},
			check: func(c config) bool { return c.parsers == 4 }},
		{name: "parsers dropped by checkpoint", args: []string{"-trace", "t", "-parsers", "4", "-checkpoint", "c"},
			check: func(c config) bool { return c.parsers == 1 }, warnHas: "-checkpoint needs"},
		{name: "parsers dropped by resume", args: []string{"-trace", "t", "-parsers", "4", "-resume", "s"},
			check: func(c config) bool { return c.parsers == 1 }, warnHas: "-resume needs"},
		{name: "parsers dropped by both", args: []string{"-trace", "t", "-parsers", "4", "-resume", "s", "-checkpoint", "c"},
			check: func(c config) bool { return c.parsers == 1 }, warnHas: "-resume and -checkpoint"},
		{name: "parsers 1 never warns", args: []string{"-trace", "t", "-checkpoint", "c"}},
	})
}

// buildRacemon builds the binary once per test run.
func buildRacemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "racemon")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestParsersCheckpointWarningCLI runs the real binary: -trace -parsers 4
// with -checkpoint must print the fallback warning to stderr (and still
// produce the checkpoint); without -checkpoint it must not warn.
func TestParsersCheckpointWarningCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ldtr")
	if out, err := exec.Command(bin, "-events", "2000", "-emit", trace).CombinedOutput(); err != nil {
		t.Fatalf("emit: %v\n%s", err, out)
	}

	ck := filepath.Join(dir, "snap.ldck")
	cmd := exec.Command(bin, "-trace", trace, "-parsers", "4", "-checkpoint", ck)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("racemon -trace -parsers -checkpoint: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-parsers 4 ignored") {
		t.Fatalf("no fallback warning on stderr:\n%s", stderr.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	cmd = exec.Command(bin, "-trace", trace, "-parsers", "4", "-json")
	stderr.Reset()
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("racemon -trace -parsers: %v\n%s", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "ignored") {
		t.Fatalf("spurious warning without -checkpoint:\n%s", stderr.String())
	}
	// The parallel decoders' parse.* registry is merged into the summary.
	if !strings.Contains(string(out), `"parse.frames"`) {
		t.Fatalf("summary lacks the parallel decoders' parse.* stats:\n%s", out)
	}
}

// TestStaticPrefilterResumeCLI runs the real binary through the
// satellite scenario: resuming a checkpointed -trace run with
// -static-prefilter must warn on stderr and proceed (exit 0), while a
// plain -trace with the flag stays a hard configuration error.
func TestStaticPrefilterResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ldtr")
	if out, err := exec.Command(bin, "-events", "2000", "-emit", trace).CombinedOutput(); err != nil {
		t.Fatalf("emit: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "snap.ldck")
	if out, err := exec.Command(bin, "-trace", trace, "-checkpoint", ck, "-checkpoint-at", "1000").CombinedOutput(); err != nil {
		t.Fatalf("checkpoint: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-trace", trace, "-resume", ck, "-static-prefilter")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resume with -static-prefilter must warn, not fail: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-static-prefilter ignored") {
		t.Fatalf("no warning on stderr:\n%s", stderr.String())
	}

	cmd = exec.Command(bin, "-trace", trace, "-static-prefilter")
	stderr.Reset()
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("plain -trace with -static-prefilter: err=%v, want exit 2\n%s", err, stderr.String())
	}
}

// TestPredicateResumeCLI: a checkpoint taken under -predicate short:16
// must resume under short:16 with no flags repeated, and a conflicting
// -predicate must lose with a warning (the restored window state only
// means anything under the checkpointed predicate).
func TestPredicateResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ldtr")
	if out, err := exec.Command(bin, "-events", "4000", "-emit", trace).CombinedOutput(); err != nil {
		t.Fatalf("emit: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "snap.ldck")
	if out, err := exec.Command(bin, "-trace", trace, "-predicate", "short:16",
		"-checkpoint", ck, "-checkpoint-at", "2000").CombinedOutput(); err != nil {
		t.Fatalf("checkpoint: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-trace", trace, "-resume", ck, "-json").Output()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(string(out), `"predicate": "short:16"`) {
		t.Fatalf("resumed run did not keep the checkpointed predicate:\n%s", out)
	}

	cmd := exec.Command(bin, "-trace", trace, "-resume", ck, "-predicate", "syncp")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("conflicting -predicate on resume must warn, not fail: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-predicate syncp ignored") ||
		!strings.Contains(stderr.String(), "short:16") {
		t.Fatalf("no override warning on stderr:\n%s", stderr.String())
	}
}

// TestShardedBatchSummaryCLI: the generate mode with -shards > 1 drives the
// pipeline itself, so its -json summary carries what every other mode
// reports — the short:k window telemetry, RA retention and the final
// "stats" snapshot with the pipeline.* metrics.
func TestShardedBatchSummaryCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildRacemon(t)
	out, err := exec.Command(bin, "-shards", "4", "-events", "20000", "-predicate", "short:64", "-json").Output()
	if err != nil {
		t.Fatalf("racemon -shards 4 -predicate short:64 -json: %v", err)
	}
	for _, want := range []string{`"mode": "generate"`, `"window_peak"`, `"ra_live_peak"`, `"stats"`, `"pipeline.backend_records"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("summary lacks %s:\n%s", want, out)
		}
	}
}
