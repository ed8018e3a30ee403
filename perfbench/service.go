package main

// The service-ckpt workload: racemond in process on loopback. One
// client runs a closed loop of back-to-back 1M-event sessions; the
// server checkpoints every 500k events into a 3-entry ring. Traces are
// generated and encoded during set-up from a pool of distinct seeds, and
// every session's done line is compared with a sequential Monitor's
// result over the same trace.

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/schedgen"
	"localdrf/internal/service"
)

const (
	servicePool   = 8 // distinct traces; the client cycles through them
	sessionEvents = 1_000_000
	// Each checkpoint costs two fsyncs, whose latency the host-speed
	// probe does not follow. At a checkpoint every 100k events, 20 fsyncs
	// at a median 2.6 ms came to about 50 ms of a 70 ms session; two
	// checkpoints per session keep the ring's writes in the path without
	// letting them dominate.
	checkpointEvery = 500_000
)

func serviceShape() traceShape {
	return traceShape{
		cfg:    progsynth.ScaledDefaults(),
		opt:    schedgen.Options{Policy: schedgen.Bursty, StaleReadPct: 10},
		pred:   monitor.PredHB,
		events: sessionEvents,
	}
}

type serviceBench struct {
	pool   [][]byte
	refs   []traceOutcome
	srv    *service.Server
	served chan struct{} // closed when Serve returns
	addr   string
	ckDir  string
	closed bool
	phase  int // measure calls so far, for unique session names

	completed int // sessions that passed their check, over all phases
	retries   int
}

func setupService(seed int64, dir string, tr *tracer, log *setupLog) (bench, error) {
	unit := tr.unit()
	root := tr.begin("setup", -1, unit)
	defer tr.end(root)
	b := &serviceBench{}
	t0 := time.Now()
	encoded := 0
	for i := 0; i < servicePool; i++ {
		data, err := encodeTrace(serviceShape(), subSeed(seed, i), sessionEvents, tr, root, unit)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, data)
		encoded += len(data)
	}
	log.genS = append(log.genS, time.Since(t0).Seconds())
	log.encodedBytes = encoded
	for _, data := range b.pool {
		ref, _, err := monitorPass(data, monitor.PredHB, 0, tr, root, unit)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		b.refs = append(b.refs, ref)
	}
	var err error
	if b.ckDir, err = os.MkdirTemp(dir, "ckpt-"); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(b.ckDir)
		return nil, err
	}
	b.addr = ln.Addr().String()
	b.srv = service.New(service.Config{
		CheckpointDir:   b.ckDir,
		CheckpointEvery: checkpointEvery,
		CheckpointRing:  3,
	})
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		// Serve's result is not the run's: it reports "server closed"
		// when close wins the race with its start, and an accept failure
		// fails the sessions, which are checked.
		_ = b.srv.Serve(ln)
	}()
	return b, nil
}

// poolEvents is the number of events in one pass over the pool.
func (b *serviceBench) poolEvents() uint64 {
	var n uint64
	for _, r := range b.refs {
		n += r.Events
	}
	return n
}

// subSeed derives the i-th pool trace's seed from the benchmark seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func (b *serviceBench) verify() (string, error) {
	return fmt.Sprintf("%d pooled traces referenced by a sequential Monitor", len(b.pool)), nil
}

// sessionRun is one client session as the benchmark saw it.
type sessionRun struct {
	ms  float64
	err error
}

// runSession streams pool trace idx as a new session and checks the
// result. With a tracer it also records the client's handshake, upload
// and done-wait phases.
func (b *serviceBench) runSession(name string, idx int, tr *tracer) sessionRun {
	data := b.pool[idx]
	c := &service.Client{
		Addr:    b.addr,
		Session: name,
		Source:  func() (io.Reader, error) { return bytes.NewReader(data), nil },
	}
	unit := tr.unit()
	root := tr.begin("session", -1, unit)
	c.WrapConn = func(attempt int, conn net.Conn) net.Conn {
		if attempt > 0 {
			b.retries++
		}
		if tr == nil {
			return conn
		}
		return &phaseConn{Conn: conn, tr: tr, root: root, unit: unit, t0: time.Now()}
	}
	t0 := time.Now()
	res, err := c.Run()
	run := sessionRun{ms: float64(time.Since(t0)) / 1e6, err: err}
	tr.end(root)
	if err == nil {
		run.err = checkSession(sessionWant(name, b.refs[idx]), res)
	}
	return run
}

// phaseConn timestamps one client connection's protocol phases from its
// reads and writes: the handshake ends when the ok line arrives, the
// upload when the last chunk is written, and the done wait when the
// done line arrives. Only the client goroutine that owns the connection
// calls it.
type phaseConn struct {
	net.Conn
	tr         *tracer
	root, unit int32
	t0         time.Time
	reads      int
	handshake  time.Time // the ok line arrived
	lastWrite  time.Time
	doneSeen   bool
}

func (c *phaseConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.reads++
	switch {
	case c.reads == 1:
		c.handshake = now
		c.tr.add("service.handshake", c.t0, now, c.root, c.unit)
	case !c.lastWrite.IsZero() && !c.doneSeen:
		c.doneSeen = true
		c.tr.add("service.upload", c.handshake, c.lastWrite, c.root, c.unit)
		c.tr.add("service.done_wait", c.lastWrite, now, c.root, c.unit)
	}
	return n, err
}

func (c *phaseConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.reads > 0 {
		c.lastWrite = time.Now()
	}
	return n, err
}

// measure runs passes until d has passed and minUnits sessions have
// run. A pass is the whole pool served once, session after session, by
// one client: the corpus time is the pass's wall time, and each
// session's time is from dial to its done line. Both are scaled by the
// probes around the pass.
func (b *serviceBench) measure(d time.Duration, minUnits int, tr *tracer, pr *probe) sample {
	var s sample
	pr.mark()
	start := time.Now()
	b.phase++
	for k := 0; time.Since(start) < d || s.attempted < minUnits; k++ {
		var runs []sessionRun
		t0 := time.Now()
		for idx := range b.pool {
			runs = append(runs, b.runSession(fmt.Sprintf("p%d-%d-%d", b.phase, k, idx), idx, tr))
		}
		el := time.Since(t0).Seconds()
		f := pr.scale()
		passed := true
		for _, r := range runs {
			s.attempted++
			if r.err != nil {
				s.fail(r.err)
				passed = false
				continue
			}
			s.sessionMs = append(s.sessionMs, r.ms*f)
			b.completed++
		}
		if passed {
			s.corpusS = append(s.corpusS, el*f)
			s.rawCorpusS = append(s.rawCorpusS, el)
		}
	}
	s.eventsPerS = float64(b.poolEvents()) / median(s.corpusS)
	return s
}

// close stops the server and waits for its handlers and its Serve loop.
// The service counters are read only after it returns, so no session's
// bookkeeping is still in flight.
func (b *serviceBench) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.srv.Close()
	<-b.served
	return os.RemoveAll(b.ckDir)
}

// layers derives the client phase timings from the traced sessions and
// reads the server's counters, per completed session, once the server
// is closed. The wire, monitor, report and snapshot layers run inside
// the server, so it then replays every pool trace through the server's
// ingest loop in process and takes those layers from the replays.
func (b *serviceBench) layers(tr *tracer) (map[string]float64, error) {
	if err := b.close(); err != nil {
		return nil, err
	}
	us := tr.unitsOf("session")
	st := b.srv.Obs().Snapshot()
	perSession := func(name string) float64 {
		return float64(st.Counter(name)) / float64(b.completed)
	}
	var sizes []float64
	for i, data := range b.pool {
		unit := tr.unit()
		root := tr.begin("replay", -1, unit)
		got, sz, err := monitorPass(data, monitor.PredHB, checkpointEvery, tr, root, unit)
		tr.end(root)
		if err == nil {
			err = checkTrace(b.refs[i], got)
		}
		if err != nil {
			return nil, fmt.Errorf("replay of pool trace %d: %w", i, err)
		}
		sizes = append(sizes, sz...)
	}
	rs := tr.unitsOf("replay")
	out, err := passLayers(rs, b.pool[0], b.refs[0], monitor.PredHB)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, map[string]float64{
		"snapshot.encode_s":           layerSeconds(rs, "snapshot.encode"),
		"snapshot.decode_s":           layerSeconds(rs, "snapshot.decode"),
		"snapshot.bytes":              median(sizes),
		"service.handshake_ms_p50":    layerSeconds(us, "service.handshake") * 1e3,
		"service.upload_ms_p50":       layerSeconds(us, "service.upload") * 1e3,
		"service.done_wait_ms_p50":    layerSeconds(us, "service.done_wait") * 1e3,
		"service.retries":             float64(b.retries) / float64(b.completed),
		"service.checkpoints":         perSession("service.checkpoints"),
		"service.checkpoint_failures": perSession("service.checkpoint_failures"),
		"service.sessions_rejected":   perSession("service.sessions_rejected"),
		"service.bytes_in":            perSession("service.bytes_in"),
		"trace.unattributed_share":    layerShare(us, "session"),
	})
	return out, nil
}

// snapshotRoundTrip is racemond's checkpoint of m: a snapshot with the
// reader's continuation. The snapshot is decoded again and checked
// against m; its size is returned.
func snapshotRoundTrip(m *monitor.Monitor, rd *monitor.TraceReader, tr *tracer, root, unit int32) (float64, error) {
	rck, err := rd.Checkpoint()
	if err != nil {
		return 0, err
	}
	var w bytes.Buffer
	s := tr.begin("snapshot.encode", root, unit)
	err = m.SnapshotWithReader(&w, rck)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("snapshot.decode", root, unit)
	snap, err := monitor.ReadSnapshot(bytes.NewReader(w.Bytes()))
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if back := snap.Monitor(); back.Events() != m.Events() || back.RAStats() != m.RAStats() {
		return 0, fmt.Errorf("snapshot at event %d decodes to %d events, RAStats %+v; want %+v",
			m.Events(), back.Events(), back.RAStats(), m.RAStats())
	}
	return float64(w.Len()), nil
}
