package service

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"localdrf/internal/faultinject"
	"localdrf/internal/monitor"
	"localdrf/internal/progsynth"
	"localdrf/internal/race"
	"localdrf/internal/schedgen"
)

// genTrace builds a deterministic wire-v2 trace: the same generator
// stack racemon uses, so service ingest is tested on realistic streams
// (RA edges, atomics, stale reads, races).
func genTrace(t testing.TB, seed int64, events int) []byte {
	t.Helper()
	cfg := progsynth.ScaledDefaults()
	cfg.Threads = 6
	cfg.NonAtomic = 24
	cfg.Atomics = 6
	cfg.RAs = 6
	cfg.Iters = cfg.IterationsFor(events)
	p := progsynth.Scaled(seed, cfg)
	tb := monitor.NewTable(p)
	var buf bytes.Buffer
	opts := schedgen.Options{Policy: schedgen.Bursty, Seed: seed, MaxEvents: events, StaleReadPct: 10}
	if _, _, err := schedgen.Encode(&buf, tb.Program(), tb, opts, monitor.BinaryV2); err != nil {
		t.Fatalf("generate trace: %v", err)
	}
	return buf.Bytes()
}

// referenceResult monitors the trace bytes with a plain sequential
// monitor — the ground truth every service journey must match
// byte-identically (canonical JSON, journey fields excluded).
func referenceResult(t testing.TB, session string, trace []byte) SessionResult {
	t.Helper()
	tr, err := monitor.NewTraceReader(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("reference reader: %v", err)
	}
	m := tr.NewMonitor()
	var batch []monitor.Event
	for {
		b, more, err := tr.NextBatch(batch[:0])
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		if !more {
			break
		}
		m.StepBatch(b)
		batch = b
	}
	reports := m.Reports()
	st := m.RAStats()
	res := SessionResult{
		Session: session, Events: m.Events(), RaceCount: len(reports),
		Races:  race.ReportsJSON(reports),
		RALive: st.Live, RAPeak: st.Peak, RACollected: st.Collected,
	}
	return res
}

// startServer builds and serves a Server on a loopback port.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// runClient streams trace as one session and returns the result.
func runClient(t testing.TB, addr, session string, trace []byte, wrap func(int, net.Conn) net.Conn) *SessionResult {
	t.Helper()
	c := &Client{
		Addr: addr, Session: session,
		Source:   func() (io.Reader, error) { return bytes.NewReader(trace), nil },
		Attempts: 20, Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		// Small chunks so server-side progress (and checkpoints) interleave
		// with injected fault positions at fine granularity.
		ChunkSize: 8 << 10,
		WrapConn:  wrap,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("session %s: %v", session, err)
	}
	return res
}

// mustMatch asserts a journey produced the reference outcome.
func mustMatch(t testing.TB, got *SessionResult, want SessionResult) {
	t.Helper()
	if g, w := string(got.CanonicalJSON()), string(want.CanonicalJSON()); g != w {
		t.Fatalf("session outcome diverged from the uninterrupted reference\ngot  %s\nwant %s", g, w)
	}
}

// counter reads a service counter by name from the registry snapshot.
func counter(s *Server, name string) uint64 {
	return s.reg.Snapshot().Counters[name]
}

// TestServiceBasic: an unfaulted session completes and matches the
// sequential reference — through a sequential monitor and through a
// sharded pipeline.
func TestServiceBasic(t *testing.T) {
	trace := genTrace(t, 7, 60_000)
	want := referenceResult(t, "basic", trace)
	if want.RaceCount == 0 {
		t.Fatal("fixture trace has no races; not a useful test")
	}
	for _, shards := range []int{1, 4} {
		s, addr := startServer(t, Config{Shards: shards, CheckpointDir: t.TempDir(), CheckpointEvery: 10_000})
		res := runClient(t, addr, "basic", trace, nil)
		mustMatch(t, res, want)
		if res.Resumed != 0 {
			t.Fatalf("shards=%d: uninterrupted session reports %d resumes", shards, res.Resumed)
		}
		if got := counter(s, "service.sessions_completed"); got != 1 {
			t.Fatalf("shards=%d: sessions_completed = %d, want 1", shards, got)
		}
		s.Close()
	}
}

// TestServiceResumesAfterDisconnect: the first attempt's connection is
// cut mid-upload; the session reverts to its newest checkpoint and the
// retry resumes it to the identical outcome.
func TestServiceResumesAfterDisconnect(t *testing.T) {
	trace := genTrace(t, 11, 80_000)
	want := referenceResult(t, "cutme", trace)
	s, addr := startServer(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 8_000})
	res := runClient(t, addr, "cutme", trace, func(attempt int, conn net.Conn) net.Conn {
		if attempt == 0 {
			return faultinject.WrapConn(conn, faultinject.ConnPlan{CutAfter: int64(len(trace) / 2)})
		}
		return conn
	})
	mustMatch(t, res, want)
	if res.Resumed < 1 {
		t.Fatal("cut session reports no resume")
	}
	if got := counter(s, "service.sessions_recovered"); got < 1 {
		t.Fatalf("sessions_recovered = %d, want >= 1", got)
	}
	if got := counter(s, "service.stream_truncated"); got < 1 {
		t.Fatalf("stream_truncated = %d, want >= 1", got)
	}
}

// TestServiceDetectsCorruption: a flipped byte mid-stream must be caught
// by the chunk CRC (never decoded), end the attempt server-side, and the
// clean retry must still converge on the reference outcome.
func TestServiceDetectsCorruption(t *testing.T) {
	trace := genTrace(t, 13, 60_000)
	want := referenceResult(t, "corrupt", trace)
	s, addr := startServer(t, Config{CheckpointDir: t.TempDir(), CheckpointEvery: 10_000})
	res := runClient(t, addr, "corrupt", trace, func(attempt int, conn net.Conn) net.Conn {
		if attempt == 0 {
			// Flip a byte well into the stream, then let the upload finish:
			// only the CRC layer can notice.
			return faultinject.WrapConn(conn, faultinject.ConnPlan{CorruptAt: int64(len(trace) * 2 / 3)})
		}
		return conn
	})
	mustMatch(t, res, want)
	if got := counter(s, "service.chunk_crc_errors"); got != 1 {
		t.Fatalf("chunk_crc_errors = %d, want 1", got)
	}
}

// TestServiceSheds: with the session cap occupied, a second session gets
// an explicit busy retry-after, and succeeds once the cap frees up.
func TestServiceSheds(t *testing.T) {
	trace := genTrace(t, 17, 20_000)
	s, addr := startServer(t, Config{MaxSessions: 1, RetryAfter: 10 * time.Millisecond})

	// Occupy the only slot with a raw half-open session.
	occupier, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(occupier, "racemond 1 session hog\n")
	okLine := make([]byte, 16)
	if _, err := occupier.Read(okLine); err != nil {
		t.Fatal(err)
	}

	c := &Client{
		Addr: addr, Session: "shedme",
		Source:   func() (io.Reader, error) { return bytes.NewReader(trace), nil },
		Attempts: 1,
	}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("second session with cap 1: err = %v, want busy", err)
	}
	if got := counter(s, "service.sessions_rejected"); got != 1 {
		t.Fatalf("sessions_rejected = %d, want 1", got)
	}

	occupier.Close()
	// The slot frees once the server notices the disconnect; the bounded
	// retry loop must ride that out and complete.
	want := referenceResult(t, "shedme", trace)
	res := runClient(t, addr, "shedme", trace, nil)
	mustMatch(t, res, want)
}

// TestServiceSlowLoris: a client that stalls mid-upload is cut off by
// the per-read deadline rather than pinning a session slot forever.
func TestServiceSlowLoris(t *testing.T) {
	s, addr := startServer(t, Config{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "racemond 1 session loris\n")
	br := make([]byte, 64)
	if _, err := conn.Read(br); err != nil { // ok line
		t.Fatal(err)
	}
	// Send a fragment of a chunk, then stall.
	trace := genTrace(t, 19, 5_000)
	cw := &chunkWriter{w: conn}
	if _, err := cw.Write(trace[:100]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for counter(s, "service.ingest_timeouts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never timed out the stalled session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The slot must be free again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.attachedN
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled session still attached (%d)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceCheckpointBackpressure: when checkpoint writes fail (full
// disk), the server goes degraded and sheds NEW admissions — it must not
// take on recovery obligations it cannot persist — and recovers as soon
// as a checkpoint write succeeds again.
func TestServiceCheckpointBackpressure(t *testing.T) {
	trace := genTrace(t, 23, 60_000)
	// Fail the first checkpoint sync, let later ones through.
	ffs := faultinject.NewFS(faultinject.OS(), faultinject.FSPlan{FailSyncNth: 1})
	s, addr := startServer(t, Config{
		CheckpointDir: t.TempDir(), CheckpointEvery: 10_000, FS: ffs,
		RetryAfter: 5 * time.Millisecond,
	})
	want := referenceResult(t, "degraded", trace)
	res := runClient(t, addr, "degraded", trace, nil)
	mustMatch(t, res, want) // a failed checkpoint must not corrupt the outcome
	if got := counter(s, "service.checkpoint_failures"); got != 1 {
		t.Fatalf("checkpoint_failures = %d, want 1", got)
	}
	if got := counter(s, "service.checkpoints"); got < 1 {
		t.Fatalf("checkpoints = %d, want >= 1 (degraded must clear on success)", got)
	}
	s.mu.Lock()
	deg := s.degraded
	s.mu.Unlock()
	if deg {
		t.Fatal("server still degraded after a successful checkpoint")
	}
}

// TestServiceRejectsBadHandshake: garbage and invalid session ids get an
// explicit protocol error.
func TestServiceRejectsBadHandshake(t *testing.T) {
	_, addr := startServer(t, Config{})
	for _, line := range []string{
		"GET / HTTP/1.1\n",
		"racemond 2 session x\n",
		"racemond 1 session ../escape\n",
		"racemond 1 session .hidden\n",
		"racemond 1 session " + strings.Repeat("a", 65) + "\n",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(conn, line)
		reply, _ := io.ReadAll(conn)
		conn.Close()
		if !strings.HasPrefix(string(reply), "err ") {
			t.Fatalf("handshake %q: reply %q, want err", strings.TrimSpace(line), reply)
		}
	}
}

// TestServiceStatsEndpoint: the aggregate view carries the session table
// and both metric namespaces; the per-session view serves the live
// registry; unknown sessions 404.
func TestServiceStatsEndpoint(t *testing.T) {
	trace := genTrace(t, 29, 30_000)
	s, addr := startServer(t, Config{})
	runClient(t, addr, "statsme", trace, nil)

	h := s.StatsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	body := rec.Body.String()
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	for _, want := range []string{"service.sessions_completed", "uptime_ns", "sessions"} {
		if !strings.Contains(body, want) {
			t.Fatalf("GET /stats missing %q:\n%s", want, body)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats?session=nosuch", nil))
	if rec.Code != 404 {
		t.Fatalf("GET /stats?session=nosuch: %d, want 404", rec.Code)
	}
}

// TestServiceIdleEviction: detached session bookkeeping is evicted after
// the idle timeout (the on-disk ring would survive; the table must not
// grow without bound).
func TestServiceIdleEviction(t *testing.T) {
	s, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond, ReadTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "racemond 1 session fleeting\n")
	buf := make([]byte, 16)
	conn.Read(buf)
	conn.Close() // abnormal end: session detaches, stays tracked
	deadline := time.Now().Add(5 * time.Second)
	for counter(s, "service.sessions_evicted") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
