// Command perfbench is the repository's same-host benchmark. It runs one
// named workload of the race monitor, racemond or the model checker for
// a fixed time, checks every output it times, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run is split into an untraced half and a traced
// half, the metrics are the per-layer ones taken from the traced half's
// spans, and the spans are written to <out>/spans-<workload>-<seed>.jsonl.
// BENCHMARK.json at the repository root lists the workloads and metrics;
// README.md in this directory maps layers to end-to-end metrics.
//
// Build and run it from the repository root with
//
//	python3 perfbench/run.py --workload trace-hb --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// bench is one workload after set-up.
type bench interface {
	// verify establishes that the references set-up built are right,
	// and says how.
	verify() (string, error)
	// measure runs timed units for at least d and at least minUnits
	// units, recording spans when tr is non-nil. It runs the host-speed
	// probe pr before the first pass and after every pass, and scales
	// each pass's timings by the probes around it.
	measure(d time.Duration, minUnits int, tr *tracer, pr *probe) sample
	// layers returns the per-layer metrics of the traced measure call.
	layers(tr *tracer) (map[string]float64, error)
	close() error
}

// setupFunc builds a workload's inputs, references and server for one
// seed. dir is a scratch directory inside the checkout.
type setupFunc func(seed int64, dir string, tr *tracer, log *setupLog) (bench, error)

// setupLog collects the schedgen layer's numbers across set-ups.
type setupLog struct {
	genS         []float64
	encodedBytes int
}

// sample is what one measure call saw.
type sample struct {
	attempted, failed int
	errs              []string
	sessionMs         []float64 // per-session wall times, scaled by the probe
	corpusS           []float64 // wall time of each full pass over the workload's input, scaled by the probe
	rawCorpusS        []float64 // the same passes' wall times, unscaled
	eventsPerS        float64   // events over scaled pass time
}

func (s *sample) fail(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *sample) merge(o sample) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
}

type workload struct {
	name     string
	setup    setupFunc
	minUnits int
}

// workloads, with the fewest units a measure call runs (passes, or for
// service-ckpt sessions): service-ckpt needs 100 sessions so that its
// p90 has ten beyond it.
var workloads = []workload{
	{"trace-hb", setupTrace("trace-hb"), 20},
	{"trace-syncp-hot", setupTrace("trace-syncp-hot"), 20},
	{"service-ckpt", setupService, 100},
	{"modelcheck", setupModel, 5},
}

// setupReps is how many times set-up runs; setup_s is the median of
// the set-up times, each scaled by the probes around it.
const setupReps = 3

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"session_ms_p50", "ms"},
	{"corpus_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"schedgen.gen_s", "s"},
	{"schedgen.encoded_bytes", "bytes"},
	{"wire.decode_s", "s"},
	{"wire.decode_share", "ratio"},
	{"wire.bytes_per_event", "bytes"},
	{"monitor.step_s", "s"},
	{"monitor.step_share", "ratio"},
	{"monitor.step_ns_per_event", "ns"},
	{"monitor.allocs_per_event", "count"},
	{"monitor.alloc_bytes_per_event", "bytes"},
	{"monitor.ra_peak_live", "count"},
	{"monitor.ra_collected", "count"},
	{"monitor.gc_sweeps", "count"},
	{"monitor.escalated_vectors", "count"},
	{"report.s", "s"},
	{"report.classes", "count"},
	{"snapshot.encode_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"service.handshake_ms_p50", "ms"},
	{"service.upload_ms_p50", "ms"},
	{"service.done_wait_ms_p50", "ms"},
	{"service.retries", "count"},
	{"service.checkpoints", "count"},
	{"service.checkpoint_failures", "count"},
	{"service.sessions_rejected", "count"},
	{"service.bytes_in", "bytes"},
	{"explore.outcomes_s", "s"},
	{"explore.outcomes", "count"},
	{"axiomatic.outcomes_s", "s"},
	{"race.findraces_s", "s"},
	{"race.reports", "count"},
	{"litmus.verify_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_share", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: trace-hb, trace-syncp-hot, service-ckpt or modelcheck")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench", "run"), "directory for scratch files and spans")
	writeGolden := flag.Bool("write-golden", false, "check the trace workloads' default-seed passes against predict.Races over the whole trace and print golden.json")
	flag.Parse()
	if *writeGolden {
		if err := printGolden(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, verifies its references,
// measures it, and assembles the result. An error means the run could
// not be carried out at all; a wrong output is a failed unit instead.
func run(w workload, seed int64, d time.Duration, traced bool, out string) (result, error) {
	prov := provenance()
	fmt.Printf("perfbench %s seed %d, %s, trace %t\n", w.name, seed, d, traced)
	fmt.Printf("provenance %s\n", mustJSON(prov))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	pr := newProbe()
	log := &setupLog{}
	var b bench
	var setupS, rawSetupS []float64
	pr.mark()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if b, err = w.setup(seed, out, tr, log); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(t0).Seconds()
		if rep < setupReps-1 {
			// Release this set-up before the probe collects garbage, so
			// that every set-up starts from the same heap.
			if err := b.close(); err != nil {
				return result{}, err
			}
			b = nil
		}
		setupS = append(setupS, el*pr.scale())
		rawSetupS = append(rawSetupS, el)
	}
	defer b.close()

	var all sample
	how, err := b.verify()
	if err != nil {
		all.attempted++
		all.fail(fmt.Errorf("reference check: %w", err))
	} else {
		fmt.Printf("reference: %s\n", how)
	}

	// The peak RSS metric covers the measured run, not the transient
	// memory of set-up and of the brute-force reference check.
	debug.FreeOSMemory()
	resetPeakRSS()

	metrics := map[string]metric{}
	sessionP90 := -1.0 // printed only; see the untraced branch
	if !traced {
		s := b.measure(d, w.minUnits, nil, pr)
		if err := b.close(); err != nil {
			return result{}, err
		}
		all.merge(s)
		v := map[string]float64{
			"setup_s":        median(setupS),
			"events_per_s":   s.eventsPerS,
			"session_ms_p50": median(s.sessionMs),
			"corpus_s":       median(s.corpusS),
			"peak_rss_mb":    peakRSSMB(),
		}
		// The session p90 is printed but is not a benchmark metric: on a
		// shared host it follows noise bursts within single units, which
		// the probes around a unit do not see, and its spread over a few
		// runs passed the widest bound the benchmark format allows.
		sessionP90 = quantile(s.sessionMs, 0.9)
		fmt.Printf("samples: %d session timings, %d corpus passes\n", len(s.sessionMs), len(s.corpusS))
		fmt.Printf("unscaled: setup_s %.6g, corpus_s %.6g; probe median %.4g ms over %d runs (reference %g ms)\n",
			median(rawSetupS), median(s.rawCorpusS), pr.medianMs(), len(pr.ms), probeRefMs)
		for _, m := range endToEnd {
			metrics[m.name] = metric{v[m.name], m.unit}
		}
	} else {
		half := d / 2
		untraced := b.measure(half, w.minUnits, nil, pr)
		all.merge(untraced)
		var before, after runtime.MemStats
		gcs, gcPauseNs := pr.gcs, pr.gcPauseNs
		runtime.ReadMemStats(&before)
		s := b.measure(half, w.minUnits, tr, pr)
		runtime.ReadMemStats(&after)
		all.merge(s)
		v, err := b.layers(tr)
		if err != nil {
			all.attempted++
			all.fail(fmt.Errorf("per-layer run: %w", err))
			v = map[string]float64{}
		}
		units := float64(max(s.attempted, 1))
		v["schedgen.gen_s"] = median(log.genS)
		v["schedgen.encoded_bytes"] = float64(log.encodedBytes)
		v["runtime.gc_cycles"] = float64(after.NumGC-before.NumGC-(pr.gcs-gcs)) / units
		v["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs-(pr.gcPauseNs-gcPauseNs)) / 1e9 / units
		v["trace.overhead_pct"] = (untraced.eventsPerS/s.eventsPerS - 1) * 100
		for _, m := range perLayer {
			metrics[m.name] = metric{v[m.name], m.unit}
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := tr.write(path, map[string]any{"workload": w.name, "seed": seed, "provenance": prov}); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}

	for _, e := range all.errs {
		fmt.Printf("FAILED: %s\n", e)
	}
	errorRate := float64(all.failed) / float64(max(all.attempted, 1))
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, m := range names {
		fmt.Printf("metric %-30s %16.6g %s\n", m.name, metrics[m.name].Value, m.unit)
	}
	if sessionP90 >= 0 {
		fmt.Printf("metric %-30s %16.6g ms (printed only, not in BENCHMARK.json)\n", "session_ms_p90", sessionP90)
	}
	fmt.Printf("metric %-30s %16.6g ratio (%d of %d failed)\n", "error_rate", errorRate, all.failed, all.attempted)
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: metrics}, nil
}

// provenance stamps a result with the host and the code it measured.
func provenance() map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += " (modified)"
			}
		}
	}
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden directories such as the build directory), so a result names
// the code it measured even where there is no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS sets the process's VmHWM back to its current RSS. Where
// the kernel refuses, the peak also covers set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
