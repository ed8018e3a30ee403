package main

// The trace-hb and trace-syncp-hot workloads: the racemon -trace path.
// A wire-v2 trace is generated and encoded during set-up; each timed
// pass decodes it with a TraceReader and checks it with one sequential
// Monitor, the way racemon does for a trace file.

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/predict"
	"localdrf/internal/progsynth"
	"localdrf/internal/schedgen"
)

// traceShape fixes one trace workload's program, schedule and predicate.
type traceShape struct {
	cfg progsynth.ScaledConfig
	// program is the progsynth seed of the monitored program; 0 means
	// the trace's seed picks the program as well as the schedule.
	program int64
	opt     schedgen.Options // Seed is set from the trace's seed
	pred    monitor.Predicate
	events  int
}

// tracedProgram is the program seed of the trace workloads. Different
// scaled programs cost the monitor up to 40% more or less per event, so
// the benchmark seed picks only the schedule: the runs of one workload
// then measure the same work, and seed 1 keeps its golden trace.
const tracedProgram = 1

// hbShape: 4M events of a default 8-thread scaled program under a bursty
// schedule, checked under happens-before.
func hbShape() traceShape {
	return traceShape{
		cfg:     progsynth.ScaledDefaults(),
		program: tracedProgram,
		opt:     schedgen.Options{Policy: schedgen.Bursty, StaleReadPct: 10},
		pred:    monitor.PredHB,
		events:  4_000_000,
	}
}

// syncpShape: 2M events of a 16-thread, sync-heavy program whose
// nonatomic traffic is Zipf-skewed and partly thread-private, checked
// under sync-preserving prediction.
func syncpShape() traceShape {
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = 16
	cfg.SyncPct = 40
	cfg.RAs = 16
	cfg.PrivateLocs = 4
	cfg.PrivatePct = 40
	return traceShape{
		cfg:     cfg,
		program: tracedProgram,
		opt:     schedgen.Options{Policy: schedgen.Bursty, StaleReadPct: 10, LocSkew: 1.1},
		pred:    monitor.PredSyncP,
		events:  2_000_000,
	}
}

// traceShapes names the trace workloads' shapes.
var traceShapes = map[string]func() traceShape{
	"trace-hb":        hbShape,
	"trace-syncp-hot": syncpShape,
}

// oracleEvents is the prefix length the brute-force decider checks on
// seeds without a stored golden: predict.Races is quadratic, and 250k
// events keep it to a few seconds.
const oracleEvents = 250_000

// encodeTrace generates one schedule of shape from seed and returns its
// wire-v2 encoding.
func encodeTrace(shape traceShape, seed int64, events int, tr *tracer, parent, unit int32) ([]byte, error) {
	cfg := shape.cfg
	cfg.Iters = cfg.IterationsFor(events)
	program := shape.program
	if program == 0 {
		program = seed
	}
	p := progsynth.Scaled(program, cfg)
	tb := monitor.NewTable(p)
	opt := shape.opt
	opt.Seed = seed
	opt.MaxEvents = events
	var buf bytes.Buffer
	s := tr.begin("schedgen.encode", parent, unit)
	n, _, err := schedgen.Encode(&buf, tb.Program(), tb, opt, monitor.BinaryV2)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("schedgen: %w", err)
	}
	if n != events {
		return nil, fmt.Errorf("schedgen: %d events, want %d", n, events)
	}
	return buf.Bytes(), nil
}

// monitorPass decodes data and monitors it under pred, recording a
// span for every decoder, monitor and report call. With ckEvery > 0 it
// also does what racemond does at every checkpoint boundary: snapshot
// the monitor with the reader's continuation; the snapshot is then
// decoded again, and the snapshot sizes are returned.
func monitorPass(data []byte, pred monitor.Predicate, ckEvery uint64, tr *tracer, root, unit int32) (traceOutcome, []float64, error) {
	s := tr.begin("wire.decode", root, unit)
	rd, err := monitor.NewTraceReader(bytes.NewReader(data))
	tr.end(s)
	if err != nil {
		return traceOutcome{}, nil, err
	}
	s = tr.begin("monitor.step", root, unit)
	m := rd.NewMonitor()
	if pred != monitor.PredHB {
		m.SetPredicate(pred, 0)
	}
	tr.end(s)
	var sizes []float64
	next := ckEvery
	var buf []monitor.Event
	for {
		s = tr.begin("wire.decode", root, unit)
		batch, more, err := rd.NextBatch(buf[:0])
		tr.end(s)
		if err != nil {
			return traceOutcome{}, nil, err
		}
		if !more {
			break
		}
		s = tr.begin("monitor.step", root, unit)
		m.StepBatch(batch)
		tr.end(s)
		buf = batch
		if ckEvery > 0 && m.Events() >= next {
			size, err := snapshotRoundTrip(m, rd, tr, root, unit)
			if err != nil {
				return traceOutcome{}, nil, err
			}
			sizes = append(sizes, size)
			next = (m.Events()/ckEvery + 1) * ckEvery
		}
	}
	s = tr.begin("report", root, unit)
	reports := m.Reports()
	tr.end(s)
	return traceOutcome{Events: m.Events(), Reports: reports, RA: m.RAStats()}, sizes, nil
}

type traceBench struct {
	name  string
	shape traceShape
	seed  int64
	data  []byte
	ref   traceOutcome
}

func setupTrace(name string) setupFunc {
	shape := traceShapes[name]()
	return func(seed int64, _ string, tr *tracer, log *setupLog) (bench, error) {
		unit := tr.unit()
		root := tr.begin("setup", -1, unit)
		defer tr.end(root)
		t0 := time.Now()
		data, err := encodeTrace(shape, seed, shape.events, tr, root, unit)
		if err != nil {
			return nil, err
		}
		log.genS = append(log.genS, time.Since(t0).Seconds())
		log.encodedBytes = len(data)
		ref, _, err := monitorPass(data, shape.pred, 0, tr, root, unit)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		return &traceBench{name: name, shape: shape, seed: seed, data: data, ref: ref}, nil
	}
}

// verify establishes that the reference is right: the default seed's
// reference must match its stored golden, and on any other seed the
// monitor must agree with the brute-force decider on a prefix of the
// same trace.
func (b *traceBench) verify() (string, error) {
	g, err := goldens()
	if err != nil {
		return "", err
	}
	if want, ok := g[b.name]; ok && want.Seed == b.seed {
		return "reference matches the stored golden", checkGolden(want, fingerprint(b.seed, len(b.data), b.ref))
	}
	t0 := time.Now()
	n, err := crossCheck(b.data, b.shape.pred, oracleEvents)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("monitor ≡ predict.Races on the first %d events (%d classes, %.2fs)", oracleEvents, n, time.Since(t0).Seconds()), nil
}

// crossCheck decodes the first limit events of data (all of them when
// limit ≤ 0) and compares the monitor's report set with predict.Races.
// It returns the number of report classes.
func crossCheck(data []byte, pred monitor.Predicate, limit int) (int, error) {
	rd, err := monitor.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var events []monitor.Event
	for limit <= 0 || len(events) < limit {
		e, ok, err := rd.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		events = append(events, e)
	}
	m := rd.NewMonitor()
	if pred != monitor.PredHB {
		m.SetPredicate(pred, 0)
	}
	m.StepBatch(events)
	hdr := rd.Header()
	want := predict.Races(predict.Spec{Pred: pred}, hdr.Threads, hdr.Decls, events)
	if err := checkReports(want, m.Reports()); err != nil {
		return 0, fmt.Errorf("monitor vs predict.Races: %w", err)
	}
	return len(want), nil
}

func (b *traceBench) measure(d time.Duration, minUnits int, tr *tracer, pr *probe) sample {
	var s sample
	pr.mark()
	start := time.Now()
	for time.Since(start) < d || s.attempted < minUnits {
		unit := tr.unit()
		root := tr.begin("pass", -1, unit)
		t0 := time.Now()
		got, _, err := monitorPass(b.data, b.shape.pred, 0, tr, root, unit)
		el := time.Since(t0).Seconds()
		tr.end(root)
		f := pr.scale()
		s.attempted++
		if err == nil {
			err = checkTrace(b.ref, got)
		}
		if err != nil {
			s.fail(err)
			continue
		}
		s.sessionMs = append(s.sessionMs, el*f*1e3)
		s.corpusS = append(s.corpusS, el*f)
		s.rawCorpusS = append(s.rawCorpusS, el)
	}
	s.eventsPerS = float64(b.ref.Events) / median(s.corpusS)
	return s
}

func (b *traceBench) layers(tr *tracer) (map[string]float64, error) {
	us := tr.unitsOf("pass")
	out, err := passLayers(us, b.data, b.ref, b.shape.pred)
	if err != nil {
		return nil, err
	}
	out["trace.unattributed_share"] = layerShare(us, "pass")
	return out, nil
}

// passLayers derives the wire, monitor and report layers' metrics from
// traced monitoring passes over data, and adds one untimed pass over
// already-decoded batches that isolates the monitor's allocations.
func passLayers(us []unitTimes, data []byte, ref traceOutcome, pred monitor.Predicate) (map[string]float64, error) {
	ev := float64(ref.Events)
	out := map[string]float64{
		"wire.decode_s":             layerSeconds(us, "wire.decode"),
		"wire.decode_share":         layerShare(us, "wire.decode"),
		"wire.bytes_per_event":      float64(len(data)) / ev,
		"monitor.step_s":            layerSeconds(us, "monitor.step"),
		"monitor.step_share":        layerShare(us, "monitor.step"),
		"monitor.step_ns_per_event": layerSeconds(us, "monitor.step") * 1e9 / ev,
		"report.s":                  layerSeconds(us, "report"),
		"report.classes":            float64(len(ref.Reports)),
	}
	allocs, err := stepAllocs(data, pred)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, allocs)
	return out, nil
}

// stepAllocs runs the monitor alone over already-decoded batches and
// returns its allocation rate and its end-of-pass retention counters.
func stepAllocs(data []byte, pred monitor.Predicate) (map[string]float64, error) {
	rd, err := monitor.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var batches [][]monitor.Event
	for {
		b, more, err := rd.NextBatch(nil)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		batches = append(batches, b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := rd.NewMonitor()
	if pred != monitor.PredHB {
		m.SetPredicate(pred, 0)
	}
	for _, b := range batches {
		m.StepBatch(b)
	}
	runtime.ReadMemStats(&after)
	ev := float64(m.Events())
	st := m.RAStats()
	return map[string]float64{
		"monitor.allocs_per_event":      float64(after.Mallocs-before.Mallocs) / ev,
		"monitor.alloc_bytes_per_event": float64(after.TotalAlloc-before.TotalAlloc) / ev,
		"monitor.ra_peak_live":          float64(st.Peak),
		"monitor.ra_collected":          float64(st.Collected),
		"monitor.gc_sweeps":             float64(m.Stats().Counter("monitor.gc.sweeps")),
		"monitor.escalated_vectors":     float64(m.EscalatedVectors()),
	}, nil
}

func (b *traceBench) close() error { return nil }
