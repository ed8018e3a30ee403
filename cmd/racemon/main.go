// Command racemon runs the online happens-before race monitor over a
// long concrete schedule — the million-event workload the exhaustive
// checkers cannot reach. The schedule is either generated in-process
// (from a scaled random program) or ingested from a raw trace in the
// wire format of internal/monitor.
//
// Usage:
//
//	racemon [-events N] [-threads K] [-policy fair|unfair|bursty]
//	        [-seed S] [-shards M] [-locs L] [-atomics A] [-ra R]
//	        [-stale PCT] [-skew S] [-halts] [-json]
//	        [-predicate hb|syncp|short:k] [-trace FILE|-]
//	        [-parsers N] [-emit FILE] [-format binary|text]
//	        [-golden FILE] [-update-golden] [-checkpoint FILE]
//	        [-checkpoint-at N] [-resume FILE] [-stats-addr ADDR]
//	        [-stats-interval DUR] [-stats-linger DUR]
//
// Modes (the -json "mode" field):
//
//	generate   (default) generate the schedule and monitor it in one
//	           fused pass, never materialising the event slice: a
//	           sequential monitor at -shards 1, whose memory stays
//	           O(locations + threads²) plus the windowed live RA-message
//	           set regardless of -events; with -shards M > 1, the
//	           two-stage parallel pipeline (one sync front-end pass, M
//	           race back-ends). Reports are identical at any shard count.
//	           monitor_ns and events/sec include generation.
//	-trace F   ingest a raw trace (binary or text wire format, sniffed
//	           automatically) from file F, or from stdin with "-", and
//	           monitor it in one bounded-memory pass (binary frames are
//	           decoded and fed a batch at a time).
//	           Generation flags are ignored.
//	-emit F    generate the schedule and write it to F in the wire
//	           format (-format binary, the default delta-compressed
//	           frames, or text) without monitoring — the producer side
//	           of -trace. Only this mode reports gen_ns.
//
// -halts appends a thread-retirement event when a generated thread runs
// to completion (both wire formats and the monitor understand it; it
// never changes reports, only RA retention).
//
// -predicate selects the race predicate the monitor decides (see
// internal/monitor's predictive-detection overview): "hb" (the
// default) reports happens-before races over the observed trace;
// "syncp" reports sync-preserving predictable races — a superset of
// the hb set, witnessing races a feasible reordering of the observed
// trace could expose; "short:k" (k ≥ 1) restricts syncp to access
// pairs at most k events apart, bounding the candidate state to O(k)
// per location regardless of trace length. Both monitoring modes
// accept it at any shard count, with identical reports. -emit does not
// monitor, so combining it with a non-default -predicate is an error.
// A checkpoint records its monitor's predicate, which is authoritative
// on -resume (a conflicting -predicate is ignored with a warning). With
// -json the summary carries the predicate and, for short:k, the
// window's live/peak candidate counts.
//
// -skew S redirects each generated nonatomic access to a location drawn
// from a Zipf distribution with exponent S (0 = uniform, the default) —
// hot-location workloads for the sharded pipeline. -parsers N decodes a
// -trace's binary frames on N parallel workers feeding the ordering
// sequencer; it falls back to the sequential decoder for text traces,
// and, with a warning, for runs that checkpoint or resume (the reader
// continuation is a sequential-decoder construct).
//
// Checkpoint/resume: -checkpoint FILE snapshots the monitor (or
// pipeline front-end + back-ends) in the LDCK format of
// internal/monitor — at the end of the run, or, with -checkpoint-at N,
// after exactly the N-th monitored event, stopping there. Both
// monitoring modes checkpoint. -resume FILE (with -trace) restores the
// snapshot and continues over the trace: a checkpoint taken by -trace
// over a binary trace carries the reader's byte offset and delta
// context, so the resumed run seeks straight to where monitoring
// stopped; a checkpoint of a generated run or of a text trace carries
// no offset, so the resumed run skips the already-monitored prefix by
// count (the trace must therefore be the same event stream, e.g. the
// -emit of the same seed and parameters).
// Resuming with -shards M > 1 routes every restored location's state to
// the back-end owning it. The resumed report set is byte-identical to a
// run that never stopped. A snapshot records whether its run had a
// static prefilter active, but not the mask itself (it is derived from
// the generated program, which a trace does not carry) — so resuming a
// prefiltered run warns that monitoring continues unfiltered, and
// -static-prefilter alongside -resume warns that it is ignored rather
// than silently dropping the flag.
//
// Telemetry: -stats-addr ADDR serves the live obs-registry snapshot
// over HTTP while the run ingests — GET /stats returns the merged
// monitor.*/pipeline.*/parse.* metrics as JSON plus per-counter rates
// since the previous scrape; /debug/vars is expvar; /debug/pprof/* are
// the standard profile handlers. -stats-interval DUR prints a progress
// line (events, throughput, races, RA window, ring occupancy) to stderr
// every DUR. -stats-linger DUR keeps the endpoint alive after the run
// so short CI runs can be scraped. With -json, the summary's "stats"
// object carries the final exact snapshot. Scrapes read atomics the hot
// path publishes at GC sweeps and batch boundaries — they never lock
// the monitor.
//
// Examples:
//
//	racemon -shards 4 -events 5000000 -json
//	racemon -events 5000000 -checkpoint ck.ldck -checkpoint-at 2500000
//	racemon -emit trace.bin -events 100000 && racemon -trace trace.bin
//	racemon -emit - -format text -events 50 -threads 2 | head
//	racemon -trace - < trace.bin
//	racemon -trace trace.bin -checkpoint ck.ldck -checkpoint-at 50000
//	racemon -trace trace.bin -resume ck.ldck -shards 4 -json
//
// The monitor reports every distinct data race (def. 9/10 pairs,
// deduplicated by location, thread pair and access kinds). -json emits a
// machine-readable summary including monitoring events/sec and the RA
// message retention stats (live, peak, collected) of the windowed GC.
// -golden FILE compares the deterministic report set against a committed
// golden JSON and exits nonzero on any difference (CI uses this);
// -update-golden rewrites FILE instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/obs"
	"localdrf/internal/predict"
	"localdrf/internal/prog"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
	"localdrf/internal/staticrace"
)

type result struct {
	Program   string `json:"program"`
	Mode      string `json:"mode"`
	Threads   int    `json:"threads"`
	Policy    string `json:"policy,omitempty"`
	Seed      int64  `json:"seed"`
	Events    int    `json:"events"`
	Completed bool   `json:"completed"`
	Shards    int    `json:"shards"`
	Parsers   int    `json:"parsers,omitempty"`
	// GenNs is -emit's generation time. The monitoring modes generate or
	// decode inside the timed pass, so their MonitorNs includes it.
	GenNs        int64   `json:"gen_ns,omitempty"`
	MonitorNs    int64   `json:"monitor_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	RaceCount    int     `json:"race_count"`
	// The RA retention stats are omitted when zero.
	RALive      int    `json:"ra_live,omitempty"`
	RALivePeak  int    `json:"ra_live_peak,omitempty"`
	RACollected uint64 `json:"ra_collected,omitempty"`
	// Predictive-detection results. Predicate is the decided race
	// predicate ("syncp", "short:k"); omitted for the default hb so
	// existing consumers and goldens see unchanged JSON. The window
	// fields are the short:k candidate-window telemetry (peak is the
	// bounded-memory claim, measured).
	Predicate    string `json:"predicate,omitempty"`
	WindowK      int    `json:"window_k,omitempty"`
	WindowLive   int    `json:"window_live,omitempty"`
	WindowPeak   int    `json:"window_peak,omitempty"`
	WindowPruned uint64 `json:"window_pruned,omitempty"`
	// Static analysis results, present with -static-prefilter: how many
	// nonatomic locations the sound static pass certified race-free
	// (their checker work is skipped) vs left in the may-race set.
	StaticCertified int               `json:"static_certified,omitempty"`
	StaticMayRace   int               `json:"static_may_race,omitempty"`
	Races           []race.ReportJSON `json:"races,omitempty"`
	Locations       locationsJSON     `json:"locations"`
	// Stats is the final telemetry snapshot of the run's obs registries
	// (monitor.*, pipeline.*, parse.* — see internal/monitor's metric
	// catalogue). Absent under -emit, which does not monitor.
	Stats *obs.Snapshot `json:"stats,omitempty"`
}

type locationsJSON struct {
	NonAtomic int `json:"nonatomic"`
	Atomic    int `json:"atomic"`
	RA        int `json:"ra"`
}

// goldenDoc is the deterministic subset of the JSON summary that the
// -golden flag compares (timings and throughput vary run to run; the
// report set must not).
type goldenDoc struct {
	RaceCount int               `json:"race_count"`
	Races     []race.ReportJSON `json:"races"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racemon: "+format+"\n", args...)
	os.Exit(1)
}

// config is a validated command line.
type config struct {
	gen           genParams
	shards        int
	parsers       int // -trace decode workers; 1 = the sequential reader
	spec          predict.Spec
	format        monitor.Format
	asJSON        bool
	maxRaces      int
	traceFile     string
	emitFile      string
	golden        string
	updateGolden  bool
	ck            ckParams
	resumeFile    string
	statsAddr     string
	statsInterval time.Duration
	statsLinger   time.Duration
}

// parseConfig parses and validates the command line. Beyond parsing
// each value, every flag rule is a row of one of its two tables: a
// combination that cannot run is an error (racemon exits 2); one that
// runs with a flag dropped is a warning. The one rule that needs the
// snapshot's contents, predicateOverrideWarning, is checked when the
// snapshot is read.
func parseConfig(args []string) (config, []string, error) {
	fs := flag.NewFlagSet("racemon", flag.ContinueOnError)
	events := fs.Int("events", 1_000_000, "schedule length in events")
	threads := fs.Int("threads", 8, "thread count of the generated program")
	policy := fs.String("policy", "fair", "scheduling policy: fair|unfair|bursty")
	seed := fs.Int64("seed", 1, "generator seed (program and schedule)")
	shards := fs.Int("shards", 1, "location shards monitored in parallel")
	locs := fs.Int("locs", 48, "nonatomic location count")
	atomics := fs.Int("atomics", 8, "atomic location count")
	ra := fs.Int("ra", 8, "release-acquire location count")
	stale := fs.Int("stale", 10, "percent of reads returning stale values")
	skew := fs.Float64("skew", 0, "Zipf exponent skewing generated nonatomic accesses toward hot locations (0 = uniform)")
	predicateS := fs.String("predicate", "hb", "race predicate: hb (observed-trace happens-before), syncp (sync-preserving predictable races) or short:k (syncp within k events)")
	staticPrefilter := fs.Bool("static-prefilter", false, "run the sound static may-race analysis over the generated program and skip checker work for certified locations (report set unchanged)")
	privateLocs := fs.Int("private-locs", 0, "thread-private nonatomic locations per thread (certifiable by -static-prefilter)")
	privatePct := fs.Int("private-pct", 0, "percent of nonatomic data traffic redirected to the accessing thread's private pool")
	parsers := fs.Int("parsers", 1, "parallel trace-decode workers for -trace (binary traces; ≥ 2 enables the parallel front-end)")
	asJSON := fs.Bool("json", false, "emit a JSON summary")
	maxRaces := fs.Int("max-races", 20, "race reports listed in the output (0 = all)")
	halts := fs.Bool("halts", false, "emit thread-retirement events when generated threads complete")
	traceFile := fs.String("trace", "", "monitor a wire-format trace from FILE ('-' = stdin) instead of generating")
	emitFile := fs.String("emit", "", "generate and write the wire-format trace to FILE ('-' = stdout) instead of monitoring")
	formatS := fs.String("format", "binary", "wire format for -emit: binary|text")
	golden := fs.String("golden", "", "compare the deterministic report set against this golden JSON file")
	updateGolden := fs.Bool("update-golden", false, "rewrite the -golden file instead of comparing")
	checkpointFile := fs.String("checkpoint", "", "write a monitor snapshot to FILE (at end of run, or at -checkpoint-at)")
	checkpointAt := fs.Uint64("checkpoint-at", 0, "snapshot after this many monitored events and stop (0 = at end)")
	resumeFile := fs.String("resume", "", "restore the monitor from this snapshot before ingesting (-trace only)")
	statsAddr := fs.String("stats-addr", "", "serve live telemetry over HTTP on this address (GET /stats, /debug/vars, /debug/pprof)")
	statsInterval := fs.Duration("stats-interval", 0, "print a telemetry progress line to stderr at this interval (0 = off)")
	statsLinger := fs.Duration("stats-linger", 0, "keep the -stats-addr endpoint alive this long after the run finishes")
	if err := fs.Parse(args); err != nil {
		return config{}, nil, err
	}

	pol, err := schedgen.ParsePolicy(*policy)
	if err != nil {
		return config{}, nil, err
	}
	format, err := monitor.ParseFormat(*formatS)
	if err != nil {
		return config{}, nil, err
	}
	spec, err := predict.Parse(*predicateS)
	if err != nil {
		return config{}, nil, err
	}
	trace, emit, resume, ck := *traceFile != "", *emitFile != "", *resumeFile != "", *checkpointFile != ""
	errorRules := []struct {
		broken bool
		msg    string
	}{
		{*threads < 1 || *events < 1 || *locs < 1 || *atomics < 0 || *ra < 0 || *shards < 1,
			"-events, -threads, -locs and -shards must be ≥ 1 (-atomics/-ra ≥ 0)"},
		{*parsers < 1, "-parsers must be ≥ 1"},
		{*skew < 0, "-skew must be ≥ 0"},
		{trace && emit, "-trace and -emit are mutually exclusive"},
		{resume && !trace, "-resume continues over a recorded trace; it needs -trace FILE"},
		{*checkpointAt > 0 && !ck, "-checkpoint-at needs -checkpoint FILE"},
		{ck && emit, "-emit does not monitor, so there is no monitor state for -checkpoint"},
		{*updateGolden && *golden == "", "-update-golden needs -golden FILE"},
		{*golden != "" && emit, "-emit does not monitor, so there is no report set for -golden"},
		{*statsLinger > 0 && *statsAddr == "", "-stats-linger keeps the HTTP endpoint alive; it needs -stats-addr"},
		{*privateLocs < 0 || *privatePct < 0 || *privatePct > 100, "-private-locs must be ≥ 0 and -private-pct in 0..100"},
		{emit && spec.Pred != monitor.PredHB, "-emit does not monitor, so -predicate has no effect; drop it or monitor the trace instead"},
		{*staticPrefilter && emit, "-static-prefilter analyses the generated program; it cannot be used with -emit"},
		{*staticPrefilter && trace && !resume, "-static-prefilter analyses the generated program; it cannot be used with -trace"},
	}
	for _, r := range errorRules {
		if r.broken {
			return config{}, nil, errors.New(r.msg)
		}
	}

	// Checkpoint/resume rides the sequential reader's byte-offset
	// continuation, which the parallel front-end cannot produce, so
	// -parsers falls back to 1 there — with a warning, since silence
	// would hide a real performance cliff. -static-prefilter with
	// -resume is the natural "resume my prefiltered run"; the mask is
	// derived from the program, which a trace does not carry, so the
	// resumed run proceeds unfiltered and says so.
	var ckConflict string
	switch {
	case resume && ck:
		ckConflict = "-resume and -checkpoint"
	case resume:
		ckConflict = "-resume"
	case ck:
		ckConflict = "-checkpoint"
	}
	dropParsers := trace && *parsers > 1 && ckConflict != ""
	warnRules := []struct {
		applies bool
		msg     string
	}{
		{*staticPrefilter && trace && resume, "-static-prefilter ignored: the filter mask is derived from the generated program and is not recorded in snapshots or traces, so the resumed run monitors unfiltered (reports may include locations the original run skipped)"},
		{dropParsers, fmt.Sprintf("-parsers %d ignored: %s needs the sequential reader's byte-offset continuation, which the parallel front-end cannot produce; decoding sequentially", *parsers, ckConflict)},
	}
	var warnings []string
	for _, r := range warnRules {
		if r.applies {
			warnings = append(warnings, r.msg)
		}
	}

	cfg := config{
		gen: genParams{
			policy: pol, seed: *seed, events: *events, threads: *threads,
			locs: *locs, atomics: *atomics, ra: *ra, stale: *stale, halts: *halts,
			skew: *skew, privateLocs: *privateLocs, privatePct: *privatePct,
			prefilter: *staticPrefilter,
		},
		shards: *shards, parsers: *parsers, spec: spec, format: format,
		asJSON: *asJSON, maxRaces: *maxRaces,
		traceFile: *traceFile, emitFile: *emitFile,
		golden: *golden, updateGolden: *updateGolden,
		ck:         ckParams{file: *checkpointFile, at: *checkpointAt},
		resumeFile: *resumeFile,
		statsAddr:  *statsAddr, statsInterval: *statsInterval, statsLinger: *statsLinger,
	}
	if dropParsers {
		cfg.parsers = 1
	}
	return cfg, warnings, nil
}

func main() {
	c, warnings, err := parseConfig(os.Args[1:])
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "racemon: "+w)
	}
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "racemon: "+err.Error())
		os.Exit(2)
	}

	if c.statsAddr != "" {
		startStats(c.statsAddr)
		if c.statsLinger > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "racemon: stats endpoint lingering %s\n", c.statsLinger)
				time.Sleep(c.statsLinger)
			}()
		}
	}
	var stopProgress chan struct{}
	if c.statsInterval > 0 {
		stopProgress = make(chan struct{})
		go progressLoop(c.statsInterval, stopProgress)
	}

	var res result
	var reports []race.Report
	switch {
	case c.traceFile != "":
		res, reports = runTrace(c)
	case c.emitFile != "":
		res = runEmit(c)
	default:
		res, reports = runGenerate(c)
	}
	if stopProgress != nil {
		close(stopProgress)
	}

	listed := reports
	if c.maxRaces > 0 && len(listed) > c.maxRaces {
		listed = listed[:c.maxRaces]
	}
	res.Races = race.ReportsJSON(listed)

	if c.golden != "" {
		if err := checkGolden(c.golden, c.updateGolden, reports); err != nil {
			fatalf("%v", err)
		}
	}

	// When the trace itself goes to stdout (-emit -), the summary must
	// not be interleaved with it.
	out := os.Stdout
	if c.emitFile == "-" {
		out = os.Stderr
	}
	if c.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	fmt.Fprintf(out, "program   %s  (%d threads; %d nonatomic / %d atomic / %d ra locations)\n",
		res.Program, res.Threads, res.Locations.NonAtomic, res.Locations.Atomic, res.Locations.RA)
	if res.Mode == "emit" {
		fmt.Fprintf(out, "emitted   %d events (%s wire format)\n", res.Events, c.format)
		return
	}
	if res.Policy != "" {
		fmt.Fprintf(out, "schedule  %d events, policy=%s, seed=%d, stale=%d%%\n",
			res.Events, res.Policy, res.Seed, c.gen.stale)
	} else {
		fmt.Fprintf(out, "trace     %d events\n", res.Events)
	}
	fmt.Fprintf(out, "monitor   %8.1f ms  (%.1fM events/sec, %d shard(s), mode=%s)\n",
		float64(res.MonitorNs)/1e6, res.EventsPerSec/1e6, res.Shards, res.Mode)
	fmt.Fprintf(out, "ra msgs   live=%d peak=%d collected=%d (windowed GC)\n",
		res.RALive, res.RALivePeak, res.RACollected)
	if res.Predicate != "" {
		fmt.Fprintf(out, "predict   predicate=%s", res.Predicate)
		if res.WindowK > 0 {
			fmt.Fprintf(out, "  window live=%d peak=%d pruned=%d", res.WindowLive, res.WindowPeak, res.WindowPruned)
		}
		fmt.Fprintln(out)
	}
	if res.StaticCertified+res.StaticMayRace > 0 {
		fmt.Fprintf(out, "static    %d certified (checker work skipped), %d may-race\n",
			res.StaticCertified, res.StaticMayRace)
	}
	fmt.Fprintf(out, "races     %d distinct\n", res.RaceCount)
	for _, r := range listed {
		fmt.Fprintf(out, "    %s\n", r)
	}
	if len(listed) < len(reports) {
		fmt.Fprintf(out, "    … and %d more (raise -max-races to list)\n", len(reports)-len(listed))
	}
}

// genParams bundles the generated-schedule knobs, so the mode runners
// cannot silently transpose adjacent int arguments.
type genParams struct {
	policy      schedgen.Policy
	seed        int64
	events      int
	threads     int
	locs        int
	atomics     int
	ra          int
	stale       int
	halts       bool
	skew        float64
	privateLocs int
	privatePct  int
	prefilter   bool
}

// program builds the generator-side program and table shared by the
// generated-schedule modes.
func (gp genParams) program() (*monitor.Table, string) {
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = gp.threads
	cfg.NonAtomic = gp.locs
	cfg.Atomics = gp.atomics
	cfg.RAs = gp.ra
	cfg.PrivateLocs = gp.privateLocs
	cfg.PrivatePct = gp.privatePct
	// Size the loop counts so the program cannot halt before the schedule
	// reaches the requested length.
	cfg.Iters = cfg.IterationsFor(gp.events)
	p := progsynth.Scaled(gp.seed, cfg)
	return monitor.NewTable(p), p.Name
}

// summary starts the result of a generated-schedule mode.
func (gp genParams) summary(mode, name string, threads, shards int) result {
	return result{
		Program: name, Mode: mode, Threads: threads, Policy: gp.policy.String(),
		Seed: gp.seed, Shards: shards,
		Locations: locationsJSON{NonAtomic: gp.locs, Atomic: gp.atomics, RA: gp.ra},
	}
}

// staticMask runs the static analysis when -static-prefilter is on,
// records the verdict counts in res, and returns the monitor skip mask
// (nil when disabled or when nothing certified).
func (gp genParams) staticMask(tb *monitor.Table, res *result) []bool {
	if !gp.prefilter {
		return nil
	}
	rep := staticrace.Analyze(tb.Program())
	res.StaticCertified = len(rep.Certified)
	res.StaticMayRace = len(rep.MayRace)
	return monitor.StaticFilter(tb.Decls(), rep.RaceFree)
}

// options is the schedgen configuration of the parameters.
func (gp genParams) options() schedgen.Options {
	return schedgen.Options{
		Policy: gp.policy, Seed: gp.seed, MaxEvents: gp.events,
		StaleReadPct: gp.stale, EmitHalts: gp.halts, LocSkew: gp.skew,
	}
}

// ckParams bundles the checkpoint flags: where to write the snapshot
// and at which absolute monitored-event index to stop (0 = end of run).
type ckParams struct {
	file string
	at   uint64
}

// errCheckpointStop aborts generation cleanly once -checkpoint-at is
// reached.
var errCheckpointStop = errors.New("checkpoint reached")

// writeSnapshot writes one snapshot via the given encoder.
func writeSnapshot(path string, snap func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("checkpoint: %v", err)
	}
	if err := snap(f); err != nil {
		fatalf("checkpoint: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("checkpoint: %v", err)
	}
}

// runGenerate generates the schedule and monitors it in one fused pass:
// schedgen's batches feed monitor.NewSink — a sequential Monitor at
// -shards 1, the pipeline above — and the schedule is never
// materialised. With -checkpoint-at N the last batch is cut so the run
// stops after exactly N monitored events.
func runGenerate(c config) (result, []race.Report) {
	gp := c.gen
	tb, name := gp.program()
	res := gp.summary("generate", name, tb.Threads(), c.shards)
	sink := monitor.NewSink(tb.Threads(), tb.Decls(), monitor.PipelineConfig{
		Shards: c.shards, StaticFilter: gp.staticMask(tb, &res),
		Predicate: c.spec.Pred, WindowK: c.spec.K,
	})
	tel.attach(sink.Obs())
	start := time.Now()
	completed, err := schedgen.StreamBatch(tb.Program(), tb, gp.options(), 0, func(evs []monitor.Event) error {
		if c.ck.at > 0 {
			if remaining := c.ck.at - sink.Events(); uint64(len(evs)) >= remaining {
				sink.StepBatch(evs[:remaining])
				return errCheckpointStop
			}
		}
		sink.StepBatch(evs)
		return nil
	})
	if err == errCheckpointStop {
		err, completed = nil, false
	}
	if err != nil {
		fatalf("generate: %v", err)
	}
	if c.ck.file != "" {
		writeSnapshot(c.ck.file, sink.Snapshot)
	}
	res.Completed = completed
	return res, finish(&res, sink, start)
}

// runTrace ingests a wire-format trace from a file or stdin through a
// sequential monitor, or the pipeline when -shards > 1, optionally
// resuming from a snapshot and/or checkpointing mid-ingest. With
// -parsers ≥ 2 (which parseConfig allows only without -resume and
// -checkpoint) the parallel front-end decodes the trace; text traces
// fall back to sequential decoding inside that reader.
func runTrace(c config) (result, []race.Report) {
	var rd io.Reader = os.Stdin
	name := "stdin"
	if c.traceFile != "-" {
		f, err := os.Open(c.traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		rd, name = f, c.traceFile
	}
	start := time.Now()
	var (
		src  monitor.BatchSource
		tr   *monitor.TraceReader
		hdr  monitor.Header
		preg *obs.Registry
	)
	if c.parsers > 1 {
		// The decode workers publish parse.* into their own registry (they
		// start before the sink exists); /stats and the summary merge it
		// with the sink's monitor.*/pipeline.* cells.
		preg = obs.NewRegistry()
		pr, err := monitor.NewParallelTraceReaderObs(rd, c.parsers, preg)
		if err != nil {
			fatalf("trace: %v", err)
		}
		defer pr.Close()
		tel.attach(preg)
		src, hdr = pr, pr.Header()
	} else {
		var err error
		if tr, err = monitor.NewTraceReader(rd); err != nil {
			fatalf("trace: %v", err)
		}
		src, hdr = tr, tr.Header()
	}

	cfg := monitor.PipelineConfig{Shards: c.shards, Predicate: c.spec.Pred, WindowK: c.spec.K}
	var sink monitor.Sink
	if c.resumeFile != "" {
		f, err := os.Open(c.resumeFile)
		if err != nil {
			fatalf("resume: %v", err)
		}
		snap, err := monitor.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fatalf("resume: %v", err)
		}
		if err := snap.Resume(tr); err != nil {
			fatalf("resume %s: %v", name, err)
		}
		if snap.StaticFiltered() {
			fmt.Fprintln(os.Stderr, "racemon: resume: the snapshotted run had a static prefilter active; the mask is not recorded, so monitoring continues unfiltered from here")
		}
		// The snapshot's predicate is authoritative; cfg's is ignored.
		sink = snap.Sink(cfg)
		if warn := predicateOverrideWarning(c.spec, sink.Predicate(), sink.WindowK()); warn != "" {
			fmt.Fprintln(os.Stderr, "racemon: "+warn)
		}
	} else {
		sink = monitor.NewSink(hdr.Threads, hdr.Decls, cfg)
	}
	tel.attach(sink.Obs())

	// Completed records whether the run actually observed the end of
	// the trace (as opposed to stopping at -checkpoint-at — the run
	// cannot know whether more events follow without reading past the
	// checkpoint position, which would move the resumable offset).
	completed := true
	if c.ck.at > 0 {
		// Batch up to a frame's worth short of the stop position, then
		// step per event so the stop (and the reader checkpoint with its
		// mid-frame pending events) is exact. 1<<16 is the wire format's
		// maximum frame event count, so no batch can overshoot the stop.
		const maxBatch = 1 << 16
		var buf []monitor.Event
		for sink.Events()+maxBatch <= c.ck.at {
			batch, ok, err := tr.NextBatch(buf[:0])
			if err != nil {
				fatalf("trace: %v", err)
			}
			if !ok {
				break
			}
			sink.StepBatch(batch)
			buf = batch
		}
		for {
			if sink.Events() >= c.ck.at {
				completed = false
				break
			}
			e, ok, err := tr.Next()
			if err != nil {
				fatalf("trace: %v", err)
			}
			if !ok {
				break
			}
			sink.Step(e)
		}
	} else if err := sink.FeedBatch(src); err != nil {
		sink.Abort()
		fatalf("trace: %v", err)
	}
	if c.ck.file != "" {
		writeSnapshot(c.ck.file, func(w io.Writer) error {
			rck, err := tr.Checkpoint()
			if err != nil {
				// Text traces carry no resumable offset; fall back to a
				// plain snapshot (resume then skips by count).
				return sink.Snapshot(w)
			}
			return sink.SnapshotWithReader(w, rck)
		})
	}

	res := result{
		Program: "trace:" + name, Mode: "trace", Threads: hdr.Threads,
		Completed: completed, Shards: c.shards,
	}
	fillLocations(&res, hdr.Decls)
	reports := finish(&res, sink, start)
	if preg != nil {
		res.Parsers = c.parsers
		stats := obs.Merge(*res.Stats, preg.Snapshot())
		res.Stats = &stats
	}
	return res, reports
}

// predicateOverrideWarning: a checkpoint records its monitor's
// predicate, and on -resume that record is authoritative (the restored
// clocks and window only mean anything under it). When the command
// line asks for a different, non-default predicate, the user gets told
// the flag lost rather than discovering it from the report set.
func predicateOverrideWarning(requested predict.Spec, pred monitor.Predicate, k int) string {
	restored := predict.Spec{Pred: pred, K: k}
	if requested.Pred == monitor.PredHB || requested == restored {
		return ""
	}
	return fmt.Sprintf("-predicate %s ignored: the snapshot was taken under %s, which is authoritative on -resume", requested, restored)
}

// fillLocations tallies a trace header's declarations into the summary.
func fillLocations(res *result, decls []monitor.LocDecl) {
	for _, d := range decls {
		switch d.Kind {
		case prog.Atomic:
			res.Locations.Atomic++
		case prog.ReleaseAcquire:
			res.Locations.RA++
		default:
			res.Locations.NonAtomic++
		}
	}
}

// runEmit generates a schedule straight into the wire format.
func runEmit(c config) result {
	var w io.Writer = os.Stdout
	if c.emitFile != "-" {
		f, err := os.Create(c.emitFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}()
		w = f
	}
	gp := c.gen
	tb, name := gp.program()
	start := time.Now()
	n, completed, err := schedgen.Encode(w, tb.Program(), tb, gp.options(), c.format)
	if err != nil {
		fatalf("emit: %v", err)
	}
	res := gp.summary("emit", name, tb.Threads(), 1)
	res.Events, res.Completed = n, completed
	res.GenNs = time.Since(start).Nanoseconds()
	return res
}

// finish drains the sink and copies its results into the summary: event
// count, monitoring time since start and throughput, RA retention, the
// decided predicate and the final telemetry snapshot — the same fields
// in every monitoring mode.
func finish(res *result, sink monitor.Sink, start time.Time) []race.Report {
	reports := sink.Finish()
	res.MonitorNs = time.Since(start).Nanoseconds()
	res.Events = int(sink.Events())
	if res.MonitorNs > 0 {
		res.EventsPerSec = float64(res.Events) / (float64(res.MonitorNs) / 1e9)
	}
	st := sink.RAStats()
	res.RALive, res.RALivePeak, res.RACollected = st.Live, st.Peak, st.Collected
	res.RaceCount = len(reports)
	fillPredict(res, sink.Predicate(), sink.WindowK(), sink.WindowStats())
	stats := sink.Stats()
	res.Stats = &stats
	return reports
}

// fillPredict records the decided predicate and, under short:k, the
// candidate-window telemetry. PredHB leaves every field zero so the
// JSON summary of default runs is unchanged.
func fillPredict(res *result, pred monitor.Predicate, k int, ws monitor.WindowStats) {
	if pred == monitor.PredHB {
		return
	}
	res.Predicate = predict.Spec{Pred: pred, K: k}.String()
	if pred == monitor.PredShort {
		res.WindowK = k
		res.WindowLive, res.WindowPeak, res.WindowPruned = ws.Live, ws.Peak, ws.Pruned
	}
}

// checkGolden compares (or, with update, rewrites) the deterministic
// report set against a committed golden file.
func checkGolden(path string, update bool, reports []race.Report) error {
	got := goldenDoc{RaceCount: len(reports), Races: race.ReportsJSON(reports)}
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden %s: %w", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		diff := "sets differ"
		for i := 0; i < len(got.Races) || i < len(want.Races); i++ {
			switch {
			case i >= len(got.Races):
				diff = fmt.Sprintf("missing %+v", want.Races[i])
			case i >= len(want.Races):
				diff = fmt.Sprintf("unexpected %+v", got.Races[i])
			case got.Races[i] != want.Races[i]:
				diff = fmt.Sprintf("got %+v, want %+v", got.Races[i], want.Races[i])
			default:
				continue
			}
			break
		}
		return fmt.Errorf("report set differs from golden %s: got %d races, want %d; first difference: %s (regenerate with -update-golden if the change is intended)",
			path, got.RaceCount, want.RaceCount, diff)
	}
	return nil
}
